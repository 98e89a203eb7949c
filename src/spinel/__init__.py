"""spinel: exact arithmetic for spin structures on supersingular elliptic curves.

The package walks the whole chain with no floating point on the critical
path: local symbols over Q, the quaternion algebra B_{p,oo}, orthogonal
involutions and their even Clifford algebras, the isogeny classification
by trace of Frobenius, arithmetic spin structures and their lifts through
GSpin -> GO+, the resulting weight-1/2 eigenvalue data with slope 1/4, the
L-function identity L(E, s) = L(rho_spin, s/2)^2, and brute-force elliptic
curve counts to cross-check all of it.
"""

__version__ = "0.1.0"

from .arith import (
    OO,
    hilbert_symbol,
    squarefree_part,
    ternary_represents,
)
from .curves import WeierstrassCurve, count_points, trace_census
from .errors import SpinelError
from .fields import FiniteField
from .isogeny import IsogenyClass, enumerate_classes, frobenius_scalar, isogeny_class
from .lfunc import l_values, verify_identity_exact, zeta_h1, zeta_spin
from .quat import Quaternion, QuaternionAlgebra, b_p_infty, find_pure_of_norm
from .spinspace import (
    EtaleElement,
    OrthogonalInvolution,
    QuadraticEtale,
    covering_map,
)
from .spinstruct import (
    RealizationData,
    SpinLift,
    SpinStructure,
    WeilRep,
    construct_arithmetic_spin,
    construct_arithmetic_spin_even,
    has_arithmetic_spin,
    realizations,
    similitude_rep,
    spin_lift,
)

__all__ = [
    "OO",
    "hilbert_symbol",
    "squarefree_part",
    "ternary_represents",
    "FiniteField",
    "WeierstrassCurve",
    "count_points",
    "trace_census",
    "SpinelError",
    "IsogenyClass",
    "enumerate_classes",
    "frobenius_scalar",
    "isogeny_class",
    "l_values",
    "verify_identity_exact",
    "zeta_h1",
    "zeta_spin",
    "Quaternion",
    "QuaternionAlgebra",
    "b_p_infty",
    "find_pure_of_norm",
    "EtaleElement",
    "OrthogonalInvolution",
    "QuadraticEtale",
    "covering_map",
    "RealizationData",
    "SpinLift",
    "SpinStructure",
    "WeilRep",
    "construct_arithmetic_spin",
    "construct_arithmetic_spin_even",
    "has_arithmetic_spin",
    "realizations",
    "similitude_rep",
    "spin_lift",
]
