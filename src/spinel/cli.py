"""Command line interface.

One subcommand per workflow; `--json` switches every command to a single
machine-readable JSON document on stdout (keys sorted, rationals rendered
as num/den strings, integers bare).  Exit codes: 0 success, 1 domain
error (with a one-line {"error": code, "detail": ...} under --json),
2 usage error.

Environment: no variable is read.  The spin structures are read off
B_{p,oo} with no search, so no search box applies.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import __version__, arith, curves, isogeny, lfunc, quat, spinstruct
from .arith import OO
from .errors import NoSpinStructure, PrecheckFailed, SpinelError

#: 17 significant digits, half up, as mpmath.nstr(x, 17) rounds; pinned in
#: full, as lfunc's context is
_DIGITS = decimal.Context(
    prec=17, rounding=decimal.ROUND_HALF_UP, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX, traps=[]
)


def _real(x: lfunc.Real) -> str:
    """A Fraction as num/den; a Decimal to 17 digits in mpmath.nstr's layout:
    fixed notation from 1e-4 up, d.ddde-N below, trailing zeros stripped."""
    if isinstance(x, Fraction):
        return str(x)
    x = _DIGITS.normalize(x)
    mantissa, _, exponent = format(x, "f" if -5 < x.adjusted() < 17 else "e").partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    return mantissa + ("e" + exponent if exponent else "")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _parse_place(text: str):
    if text == OO:
        return OO
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"place must be a prime or {OO!r}") from None


def _emit(doc, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(human)


def _cmd_hilbert(args) -> int:
    a, b = args.a, args.b
    places = [args.place] if args.place is not None else arith.places(a, b)
    symbols = {str(v): arith.hilbert_symbol(a, b, v) for v in places}
    product = math.prod(symbols.values())
    doc = {"a": str(a), "b": str(b), "symbols": symbols, "product": product}
    lines = [f"({a},{b})_{v} = {s:+d}" for v, s in symbols.items()]
    if args.place is None:
        lines.append(f"product over listed places: {product:+d}")
    _emit(doc, args.json, "\n".join(lines))
    return 0


def _cmd_bpinf(args) -> int:
    B = quat.b_p_infty(args.p)
    ram = sorted(v for v in quat.ramified_places(B) if v != OO)
    doc = B.to_json() | {"ramified": ram + [OO]}
    _emit(doc, args.json, f"B_{{{args.p},oo}} = {B}, ramified at {ram + [OO]}")
    return 0


def _cmd_classify(args) -> int:
    classes = isogeny.enumerate_classes(args.p, args.a)
    doc = [c.to_json() for c in classes]
    lines = [str(c) for c in classes]
    _emit(doc, args.json, "\n".join(lines))
    return 0


def _structure(p: int, n: int) -> spinstruct.SpinStructure:
    """The canonical arithmetic spin structure for (p, n), read off B_{p,oo}."""
    s = spinstruct.construct_arithmetic_spin(p, n)
    if s is None:
        raise NoSpinStructure(
            f"no arithmetic spin structure for p = {p}, n = {n}: "
            "B_{p,oo} has no pure quaternion of norm 1"
        )
    return s


def _cmd_spin(args) -> int:
    p, n = args.p, args.n
    s = _structure(p, n)
    if args.tau_sign == "plus":
        # same involution, but Frobenius from the +2p^n class; the lift must fail
        s = spinstruct.SpinStructure(
            spinstruct.spinorial_class(p, n, 1), s.algebra, s.sigma, s.clifford
        )
    c, tau = s.curve_class, s.tau
    lift = spinstruct.spin_lift(spinstruct.WeilRep(s, tau))
    doc = s.to_json() | {"lift": None, "eigen_abs_sq": None, "slope": None}
    lines = [
        f"class: beta = {c.beta} over F_{c.q}",
        f"algebra: {s.algebra}",
        f"involution: {s.sigma}",
        f"clifford: {s.clifford}",
        f"tau = {tau}",
    ]
    if lift is not None:
        data = spinstruct.realizations(lift)
        doc["lift"] = str(lift.z)
        doc["eigen_abs_sq"] = str(data.eigen_abs_sq)
        doc["slope"] = str(data.normalized_slope)
        lines += [
            f"lift: z = {lift.z}, eigenvalues +-z",
            f"|eigenvalue|^2 = {data.eigen_abs_sq}, slope = {data.normalized_slope}",
        ]
    else:
        lines.append("lift: none (tau is not a square in K)")
    _emit(doc, args.json, "\n".join(lines))
    return 0


def _cmd_lfunc(args) -> int:
    p, n = args.p, args.n
    proof = lfunc.verify_identity_exact(p, n)
    doc = {
        "zeta_spin": str(lfunc.zeta_spin(p, n)),
        "zeta_h1": str(lfunc.zeta_h1(p, n)),
        "identity_exact": proof.holds,
        "vacuous": proof.vacuous,
        "numeric": None,
    }
    lines = [
        f"Z(rho_spin, T) = {doc['zeta_spin']}",
        f"Z(H^1, T) = {doc['zeta_h1']}",
        f"L(E, s) = L(rho_spin, s/2)^2: {'verified' if proof.holds else 'FAILED'}"
        + (" (vacuous: no arithmetic spin structure)" if proof.vacuous else ""),
    ]
    if args.s is not None:
        vals = lfunc.l_values(p, n, args.s)
        doc["numeric"] = {
            "s": str(vals.s),
            "l_curve": _real(vals.l_curve),
            "l_spin": _real(vals.l_spin),
            "l_spin_half": _real(vals.l_spin_half),
            "l_spin_half_sq": _real(vals.l_spin_half_sq),
        }
        lines += [
            f"L(E, {vals.s}) = {_real(vals.l_curve)}",
            f"L(rho_spin, {vals.s}) = {_real(vals.l_spin)}",
            f"L(rho_spin, {vals.s}/2)^2 = {_real(vals.l_spin_half_sq)}",
        ]
    _emit(doc, args.json, "\n".join(lines))
    return 0


def _factor_prime_power(q: int) -> tuple[int, int]:
    sign, factors = arith.factorize(q)
    if sign < 0 or len(factors) != 1:
        raise PrecheckFailed(f"q = {q} is not a prime power")
    [(p, a)] = factors.items()
    return p, a


def _cmd_curves(args) -> int:
    p, a = _factor_prime_power(args.q)
    if args.find_q14:
        if a != 2:
            raise PrecheckFailed("--find-q14 needs q = p^2")
        E = curves.find_q14_curve(p)
        n = curves.count_points(E)
        trace = args.q + 1 - n
        doc = {
            "coeffs": E.to_json(),
            "points": n,
            "trace": trace,
            "supersingular": trace % p == 0,
        }
        _emit(doc, args.json, f"{E}: {n} points, trace {trace}")
        return 0
    traces = sorted(curves.trace_census(curves.FiniteField(p, a)))
    expected = sorted(c.beta for c in isogeny.enumerate_classes(p, a))
    doc = {"q": args.q, "traces": traces, "match": traces == expected}
    human = (
        f"traces over F_{args.q}: {traces}\n"
        f"classification {'matches' if doc['match'] else 'DISAGREES'}"
    )
    _emit(doc, args.json, human)
    return 0


def _cmd_crystal(args) -> int:
    s = _structure(args.p, args.n)
    lift = spinstruct.spin_lift(spinstruct.similitude_rep(s))
    if lift is None:  # tau = -p^n always lifts here
        raise AssertionError(f"p = {args.p}, n = {args.n}, tau = {s.tau}: tau has no spin lift")
    data = spinstruct.realizations(lift, ell=args.ell)
    phi = "multiplication by x"  # the spin Frobenius on the rank-2 crystal K
    doc = {
        "ell": data.ell,
        "eigen_abs_sq": str(data.eigen_abs_sq),
        "weight": str(data.weight),
        "frobenius": data.crystal_frobenius,
        "phi": phi,
        "v_p_phi_sq": data.v_p_phi_squared,
        "v_p_q": data.v_p_q,
        "slope": str(data.normalized_slope),
    }
    human = (
        f"ell-adic (ell = {data.ell}): eigenvalues +-{lift.z}, "
        f"|eigenvalue|^2 = {data.eigen_abs_sq} (weight {data.weight})\n"
        f"crystalline: phi = {phi}, phi^2 = {data.crystal_frobenius}, "
        f"slope {data.normalized_slope}"
    )
    _emit(doc, args.json, human)
    return 0


def _cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    def run(name, fn):
        try:
            checks.append((name, bool(fn())))
        except Exception:  # a crash is a failure, not an abort
            checks.append((name, False))

    run(
        "hilbert-product-formula",
        lambda: all(
            math.prod(arith.hilbert_symbol(a, b, v) for v in arith.places(a, b)) == 1
            for a in (-6, -1, 2, 15)
            for b in (-10, -2, 3, 35)
        ),
    )
    run(
        "census-matches-classification",
        lambda: all(
            curves.trace_census(curves.FiniteField(p, a))
            == {c.beta for c in isogeny.enumerate_classes(p, a)}
            for p, a in ((2, 2), (5, 1), (3, 2))
        ),
    )
    run("spin-structure-p3", lambda: _selftest_spin(3))
    run("spin-structure-p2", lambda: _selftest_spin(2))
    run(
        "identity-exact",
        lambda: all(
            lfunc.verify_identity_exact(p, n).holds for p in (2, 3, 5) for n in (1, 2)
        ),
    )
    run(
        "l-values-3-1",
        lambda: lfunc.l_values(3, 1, 1).l_curve == Fraction(9, 16)
        and lfunc.l_values(3, 1, 1).l_spin_half == Fraction(3, 4),
    )
    failed = [name for name, ok in checks if not ok]
    if args.json:
        doc = {
            "results": {name: ok for name, ok in checks},
            "passed": len(checks) - len(failed),
            "failed": len(failed),
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        print(f"{len(checks) - len(failed)}/{len(checks)} passed")
    return 1 if failed else 0


def _selftest_spin(p: int) -> bool:
    s = spinstruct.construct_arithmetic_spin(p, 1)
    lift = spinstruct.spin_lift(spinstruct.similitude_rep(s))
    if lift is None:
        return False
    data = spinstruct.realizations(lift)
    return (
        data.eigen_abs_sq == p
        and data.normalized_slope == Fraction(1, 4)
        and lift.z.square() == lift.z.ring.element(-p)
    )


class _Parser(argparse.ArgumentParser):
    """Reads a negative fraction such as -3/4 as a value, as argparse reads
    -2 and -0.5, so `--s -3/4` means `--s=-3/4`; subparsers are built with
    the parent's class, so every subcommand gets the same reading."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _add_common(sub):
    sub.add_argument("--json", action="store_true", help="emit one JSON document")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinel",
        description="Exact arithmetic for spin structures on supersingular "
        "elliptic curves and their weight-1/2 L-data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("hilbert", help="Hilbert symbols of a pair of rationals")
    sp.add_argument("--a", type=_parse_fraction, required=True)
    sp.add_argument("--b", type=_parse_fraction, required=True)
    sp.add_argument("--place", type=_parse_place, help=f"a prime or {OO!r}")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_hilbert)

    sp = subs.add_parser("bpinf", help="the quaternion algebra ramified at {p, oo}")
    sp.add_argument("--p", type=_positive_int, required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_bpinf)

    sp = subs.add_parser("classify", help="isogeny classes over F_{p^a} by trace")
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--a", type=_positive_int, required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = subs.add_parser("spin", help="arithmetic spin structure and its lift")
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--n", type=_positive_int, required=True, help="q = p^(2n)")
    sp.add_argument(
        "--tau-sign",
        choices=("minus", "plus"),
        default="minus",
        help="sign of tau = +-p^n (plus demonstrates the lift obstruction)",
    )
    _add_common(sp)
    sp.set_defaults(fn=_cmd_spin)

    sp = subs.add_parser("lfunc", help="zeta data and the L-function identity")
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--s", type=_parse_fraction, help="also evaluate at this s")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_lfunc)

    sp = subs.add_parser("curves", help="brute-force curve checks over F_q")
    sp.add_argument("--q", type=_positive_int, required=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--census", action="store_true", help="trace census (default)")
    group.add_argument(
        "--find-q14", action="store_true", help="find a curve with (p+1)^2 points"
    )
    _add_common(sp)
    sp.set_defaults(fn=_cmd_curves)

    sp = subs.add_parser("crystal", help="weight-1/2 realization data")
    sp.add_argument("--p", type=_positive_int, required=True)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--ell", type=_positive_int, help="ell-adic label, a prime other than p")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_crystal)

    sp = subs.add_parser("selftest", help="quick end-to-end sanity checks")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            code = args.fn(args)
        except (SpinelError, AssertionError) as exc:
            # a library check that fails is reported like a domain error
            err = getattr(exc, "code", "internal-error")
            if getattr(args, "json", False):
                print(json.dumps({"error": err, "detail": str(exc)}, sort_keys=True))
            else:
                print(f"error ({err}): {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point fd 1 at devnull so that the
        # interpreter's last flush of what is still buffered stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
