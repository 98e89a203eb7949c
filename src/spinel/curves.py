"""Brute-force elliptic curve counts over small finite fields.

This is the experimental side of the package: everything here is direct
computation (point counts, census of traces, pointwise Frobenius checks),
used to cross-check the isogeny classification and the spinorial classes
without going through any of that theory.

A curve is handled as list operations over the whole field F_q (see
spinel.fields), not as one field-method call per element: _horner
evaluates a polynomial at every x at once, one list comprehension per
Horner step on the exp/log/Zech tables, and point lists read off those
lists; point counts and census rows read the field's log-indexed counts of
the y over one x (FiniteField._sols).  The group law is one function on the
same tables (_group_law); the Frobenius check is its only caller and checks
the short form once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Callable, Iterator, Optional

from .errors import FieldTooLarge, PrecheckFailed, SearchExhausted
from .fields import FiniteField

#: refuse a trace census whose normal-form family, rows x q constants x q, exceeds
#: this many point evaluations; for p >= 5 the scan evaluates about half of them
MAX_CENSUS_EVALUATIONS = 10**7


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, nonsingular, over F.

    The coefficients are element codes of F (ints in [0, q)), not integers
    to be reduced: -1 over F_9 is refused, not read as some element.
    Fields compare by identity, so two curves are equal only over the same
    FiniteField instance: an extension field is one instance while it is
    kept, but a prime field is built afresh on each FiniteField(p) call.
    """

    field: FiniteField
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        q = self.field.q
        for name in ("a1", "a2", "a3", "a4", "a6"):
            c = getattr(self, name)
            if not isinstance(c, int) or not 0 <= c < q:
                raise ValueError(f"{name} = {c!r} over F_{q}: coefficients are ints in [0, {q})")
        if self.discriminant() == 0:
            raise ValueError("singular Weierstrass equation")

    def _b_invariants(self) -> tuple[int, int, int, int]:
        F = self.field
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        m, add = F.mul, F.add
        c = F.from_int
        b2 = add(m(a1, a1), m(c(4), a2))
        b4 = add(m(c(2), a4), m(a1, a3))
        b6 = add(m(a3, a3), m(c(4), a6))
        b8 = add(
            add(m(m(a1, a1), a6), m(c(4), m(a2, a6))),
            add(
                F.neg(m(m(a1, a3), a4)),
                add(m(a2, m(a3, a3)), F.neg(m(a4, a4))),
            ),
        )
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        F = self.field
        m, add, neg = F.mul, F.add, F.neg
        c = F.from_int
        b2, b4, b6, b8 = self._b_invariants()
        t1 = neg(m(m(b2, b2), b8))
        t2 = neg(m(c(8), m(b4, m(b4, b4))))
        t3 = neg(m(c(27), m(b6, b6)))
        t4 = m(c(9), m(b2, m(b4, b6)))
        return add(add(t1, t2), add(t3, t4))

    def is_short(self) -> bool:
        return self.a1 == 0 and self.a2 == 0 and self.a3 == 0

    def to_json(self) -> list[list[int]]:
        F = self.field
        return [list(F.decode(c)) for c in (self.a1, self.a2, self.a3, self.a4, self.a6)]

    def __str__(self) -> str:
        F = self.field
        return (
            f"[{','.join(str(F.decode(c)) for c in (self.a1, self.a2, self.a3, self.a4, self.a6))}]"
            f" over {F}"
        )


def _horner(F: FiniteField, coeffs: tuple[int, ...], last: list[int] | None = None) -> list[int]:
    """[c0 x^n + c1 x^(n-1) + ... + cn for x in F], coeffs = (c0, ..., cn), n >= 1.

    Horner's rule over the whole field at once, one list comprehension per
    step on the log tables: a product by x adds log x, and a sum with the
    constant c is a Zech lookup (zero, which has no log, gives c).  The last
    step reads last, a list indexed like exp, in place of exp: count_points
    passes F._sols and gets the number of y over each x with no second pass.
    """
    exp, log, zech = F._exp, F._log, F._zech
    last, n = exp if last is None else last, len(coeffs) - 1
    lead = log[coeffs[0]]
    for k, c in enumerate(coeffs[1:], 1):
        # the last step reads last: the sum with cn, or the product by x when cn = 0
        table = last if k == n and not c else exp
        if k == 1:
            values = [table[lead + lx] for lx in log]  # c0 x
        else:
            values = [table[log[v] + lx] for v, lx in zip(values, log)]
        if c:
            table, lc = last if k == n else exp, log[c]
            values = [table[lc + zech[log[v] - lc]] if v else table[lc] for v in values]
    return values


def count_points(E: WeierstrassCurve) -> int:
    """#E(F_q) including the point at infinity, by direct enumeration.

    Odd characteristic: completing the square turns the equation into
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, and the count over x is
    the number of square roots of that cubic, or of a quarter of it, since
    4 is a square (F._sols, read at Horner's last step).  Characteristic 2:
    for h = a1 x + a3 nonzero y = h z turns the equation into z^2 + z =
    rhs/h^2, counted off F._sols at its log; h = 0 leaves the bijective
    y -> y^2.  The cubic, h and rhs are evaluated over the whole field by _horner.
    """
    F = E.field
    if F.p == 2:
        sols, log, order = F._sols, F._log, F.q - 1
        return 1 + sum(
            sols[log[d] + (-2 * log[h]) % order] if h else 1  # d / h^2
            for d, h in zip(_horner(F, (1, E.a2, E.a4, E.a6)), _horner(F, (E.a1, E.a3)))
        )
    b2, b4, b6, _ = E._b_invariants()
    quarter, half = F.inv(F.from_int(4)), F.inv(F.from_int(2))
    cubic = (1, F.mul(b2, quarter), F.mul(b4, half), F.mul(b6, quarter))
    return 1 + sum(_horner(F, cubic, F._sols))


def _census_rows(F: FiniteField) -> list[tuple]:
    """The normal forms of trace_census as rows (curve, values, singular).

    A row scans the curves curve(c) for every constant c not in singular;
    curve(c) gives the a-invariants, and its trace is len(values) minus the
    sum of sol[v + c] over v in values, where sol[d] counts the y over one x.
    In odd characteristic sol[d] is the number of square roots of d.  In
    characteristic 2, y = h z turns y^2 + h y = d into z^2 + z = d / h^2,
    which has 2 or 0 roots as d / h^2 is in the Artin-Schreier image or not;
    values holds d / h^2 less the constant, and leaves out each x with
    h(x) = 0, which has exactly one point.  For p >= 5 the singular
    constants, the square roots of -4A^3/27, come in pairs {B, -B}, so
    _census_scan skips a constant and its negative together.
    """
    add, mul = F.add, F.mul
    xs = F.elements()
    if F.p == 2:
        # y^2 + xy = x^3 + a2 x^2 + a6, constant a2: h = x, and each x != 0
        # has the value x + a6 / x^2
        rows = [
            (lambda c, a6=a6: (1, c, 0, 0, a6),
             [add(x, mul(a6, F.inv(mul(x, x)))) for x in xs[1:]], ())
            for a6 in xs[1:]
        ]
        # y^2 + a3 y = x^3 + a4 x + a6 with a6 = c a3^2: h = a3, and each x
        # has the value (x^3 + a4 x) / a3^2
        for a3, a4 in product(xs[1:], xs):
            w = F.inv(mul(a3, a3))
            rows.append(
                (lambda c, a3=a3, a4=a4: (0, 0, a3, a4, mul(c, mul(a3, a3))),
                 _horner(F, (w, 0, mul(a4, w), 0)), ())
            )
        return rows
    # odd p: y^2 = x^3 + a2 x^2 + a4 x + a6, constant a6
    if F.p == 3:
        outer = [(a2, 0, (0,)) for a2 in xs[1:]] + [(0, a4, ()) for a4 in xs[1:]]
    else:
        # (A, B) ~ (u^4 A, u^6 B), so A runs over 0 and the cosets of the
        # fourth powers g^k, k < gcd(4, q - 1); B is singular iff 4A^3 + 27B^2 = 0
        minus_4_27 = F.neg(mul(F.from_int(4), F.inv(F.from_int(27))))
        outer = [
            (0, A, F.sqrts(mul(minus_4_27, F.pow(A, 3))))
            for A in [0, *F._exp[: gcd(4, F.q - 1)]]
        ]
    return [
        (lambda c, a2=a2, a4=a4: (0, a2, 0, a4, c), _horner(F, (1, a2, a4, 0)), singular)
        for a2, a4, singular in outer
    ]


def census_size(p: int, q: int) -> int:
    """Point evaluations of the census's normal-form family over F_q, q a
    power of p: rows x q constants x q.  Raises FieldTooLarge above
    MAX_CENSUS_EVALUATIONS.

    It reads only p and q.  For p >= 5 the scan evaluates about half of the
    family and reads each -B off B, but the limit still prices the family.
    """
    rows = q * q - 1 if p == 2 else 2 * (q - 1) if p == 3 else 1 + gcd(4, q - 1)
    size = rows * q * q
    if size > MAX_CENSUS_EVALUATIONS:
        raise FieldTooLarge(
            f"trace census over F_{q}: the normal-form scan needs {size} point "
            f"evaluations, over the census limit {MAX_CENSUS_EVALUATIONS}"
        )
    return size


def _census_scan(F: FiniteField) -> Iterator[tuple[tuple[int, int, int, int, int], int]]:
    """(a-invariants, trace) for every curve of the normal-form scan; the
    counts at d + c for every d read F._sols at log c + zech[log d - log c].

    For p >= 5 only the constants 0 and g^k, k < (q - 1)/2, are scanned, and
    each nonzero one also yields its twin at -c = g^(k + (q - 1)/2):
    y^2 = x^3 + Ax - c is y^2 = x^3 + Ax + c under x -> -x, twisted by -1,
    so its trace is chi(-1) t.  p = 2 and 3 scan every constant.
    """
    sols, log, zech, exp = F._sols, F._log, F._zech, F._exp
    rows, nonzero = _census_rows(F), log[1:]
    half = F._neg_shift  # log(-1), so -c = exp[log c + half]
    twins = F.p >= 5
    scanned = [log[0], *range(half)] if twins else log
    sign = (-1) ** half  # chi(-1): -1 = g^half is a square iff half is even
    for lc in scanned:
        c = exp[lc]
        row = [sols[lc + zech[k - lc]] for k in nonzero] if c else [sols[k] for k in nonzero]
        count = [sols[lc], *row].__getitem__  # d = 0 has the count at c
        for curve, values, singular in rows:
            if c not in singular:
                trace = len(values) - sum(map(count, values))
                yield curve(c), trace
                if twins and c:
                    yield curve(exp[lc + half]), sign * trace


def trace_census(F: FiniteField) -> set[int]:
    """{q + 1 - #E(F_q) : E nonsingular Weierstrass over F_q}.

    Point counts are isomorphism invariants, so the scan visits one family of
    normal forms that meets every isomorphism class (Silverman, The
    Arithmetic of Elliptic Curves, Appendix A):

    - characteristic 2: y^2 + xy = x^3 + a2 x^2 + a6 with a6 != 0 (j != 0),
      and y^2 + a3 y = x^3 + a4 x + a6 with a3 != 0 (j = 0);
    - characteristic 3: y^2 = x^3 + a2 x^2 + a6 with a2, a6 != 0 (j != 0),
      and y^2 = x^3 + a4 x + a6 with a4 != 0 (j = 0);
    - p >= 5: y^2 = x^3 + Ax + B with 4A^3 + 27B^2 != 0.  Since (A, B) and
      (u^4 A, u^6 B) are isomorphic, A runs only over 0 and g^k for
      k < gcd(4, q - 1), g the field's primitive element.  B is scanned at 0
      and g^k for k < (q - 1)/2; the trace at -B is chi(-1) times the trace
      at B, so it is read off B (_census_scan).

    The stated conditions are exactly nonsingularity.  Raises FieldTooLarge
    before any scanning if the family needs more than MAX_CENSUS_EVALUATIONS
    point evaluations.
    """
    census_size(F.p, F.q)
    return {trace for _, trace in _census_scan(F)}


# short-form group law, p >= 5; points are (x, y) pairs or None for infinity

Point = Optional[tuple[int, int]]


def _require_short(E: WeierstrassCurve) -> None:
    if E.field.p < 5 or not E.is_short():
        raise PrecheckFailed("group law implemented for short form, p >= 5 only")


def _group_law(E: WeierstrassCurve) -> Callable[[Point, Point], Point]:
    """Chord-tangent addition on E(F_q) as one function on the field's tables.

    Short form, p >= 5, and P, Q on E; the callers check the form once.
    Products and quotients add and subtract logs, and u - v is a Zech lookup
    on u and -v = g^((q-1)/2) v.
    """
    F = E.field
    exp, log, zech = F._exp, F._log, F._zech
    half, order = F._neg_shift, F.q - 1
    minus_a4, log2, log3 = F.neg(E.a4), log[2], log[3]

    def minus(u: int, v: int) -> int:
        if not v:
            return u
        lv = log[v] + half  # a log of -v
        if not u:
            return exp[lv]
        lu = log[u]
        return exp[lu + zech[(lv - lu) % order]]

    def add(P: Point, Q: Point) -> Point:
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if y1 != y2 or not y1:
                return None  # Q = -P
            # slope (3 x1^2 + a4) / (2 y1), the numerator as 3 x1^2 - (-a4)
            num = minus(exp[(log3 + 2 * log[x1]) % order] if x1 else 0, minus_a4)
            den = log2 + log[y1]
        else:
            num = minus(y2, y1)
            den = log[minus(x2, x1)]
        lam = exp[(log[num] - den) % order] if num else 0
        x3 = minus(minus(exp[2 * log[lam]], x1), x2)
        return (x3, minus(exp[log[lam] + log[minus(x1, x3)]], y1))

    return add


def curve_points(E: WeierstrassCurve) -> list[Point]:
    """All points of E(F_q), infinity first, then by x, y = w before -w.

    Short form only.  The right-hand side comes from _horner over the whole
    field, and its square roots from half its log.
    """
    _require_short(E)
    F = E.field
    exp, log, half = F._exp, F._log, F._neg_shift
    pts: list[Point] = [None]
    for x, v in enumerate(_horner(F, (1, E.a2, E.a4, E.a6))):
        if not v:
            pts.append((x, 0))
        elif not log[v] & 1:
            k = log[v] >> 1
            pts += ((x, exp[k]), (x, exp[k + half]))
    return pts


def _reduced_family(F: FiniteField) -> Iterator[tuple[int, int, int, int, int]]:
    if F.p == 2:
        yield from product(F.elements(), repeat=5)
    elif F.p == 3:
        for a2, a4, a6 in product(F.elements(), repeat=3):
            yield (0, a2, 0, a4, a6)
    else:
        for a4, a6 in product(F.elements(), repeat=2):
            yield (0, 0, 0, a4, a6)


def find_trace_zero_curve(p: int) -> WeierstrassCurve:
    """First curve over F_p with exactly p + 1 points, in scan order."""
    F = FiniteField(p, 1)
    for coeffs in _reduced_family(F):
        try:
            E = WeierstrassCurve(F, *coeffs)
        except ValueError:
            continue
        if count_points(E) == p + 1:
            return E
    raise SearchExhausted(f"no supersingular curve over F_{p}")


def find_q14_curve(p: int) -> WeierstrassCurve:
    """A curve over F_{p^2} with (p+1)^2 points, i.e. Frobenius scalar -p.

    A trace-zero curve over F_p has Frobenius eigenvalues +-i*sqrt(p), so
    its base change to F_{p^2} has trace -2p and (p+1)^2 points; the count
    is re-verified directly, and a mismatch would falsify that argument.
    """
    F2 = FiniteField(p, 2)
    target = (p + 1) ** 2
    E0 = find_trace_zero_curve(p)
    # constants embed as themselves under the int encoding
    E = WeierstrassCurve(F2, E0.a1, E0.a2, E0.a3, E0.a4, E0.a6)
    if count_points(E) != target:
        raise SearchExhausted(f"the base change of {E0} lacks {target} points over F_{p**2}")
    return E


def _exponent_divides(E: WeierstrassCurve, points: list[Point], m: int) -> bool:
    """Is [m]P = O for every point P of E(F_q)?  Short form, p >= 5, and
    points = curve_points(E).

    From each point P not met yet, walk P, 2P, ... to O, marking every
    multiple met; the walk's length k is the order of P and must divide m.
    H is the largest cyclic subgroup walked so far, and i the number of
    points H and <P> share, O among them.  When |H| k = |E(F_q)| i, the sum
    H + <P> has |H| k / i = |E(F_q)| points, so every point is h + jP with
    the orders of h and jP dividing m, and the answer is True at once.  A
    group that never shows such a pair is walked to the end, one cyclic
    subgroup at a time, which is exhaustive: the order of a multiple
    divides the order of the point.  On the curves of find_q14_curve with
    m = p + 1 it makes 88 additions at p = 17 and 417 at p = 127.
    """
    add = _group_law(E)
    met: set[Point] = set()
    span: set[Point] = {None}  # H
    for P in points[1:]:
        if P in met:
            continue
        walk, Q = [None], P
        while Q is not None:
            walk.append(Q)
            Q = add(Q, P)
        if m % len(walk):
            return False
        if len(span) * len(walk) == len(points) * sum(R in span for R in walk):
            return True
        met.update(walk)
        if len(walk) > len(span):
            span = set(walk)
    return True


def verify_frobenius_scalar(E: WeierstrassCurve) -> bool:
    """Check [p+1]P = O for every rational point of E/F_{p^2}.

    With the precondition #E(F_{p^2}) = (p+1)^2 this certifies that
    E(F_{p^2}) has exponent p + 1, hence is (Z/(p+1))^2 = E[p+1]: the whole
    (p+1)-torsion is rational, so Frobenius, which fixes every rational
    point, acts on it as 1 = -p mod p + 1.  This is the same test as
    (x^q, y^q) = [-p]P, since x^q = x for every x in F_q.  Preconditions:
    short form, p >= 5, field F_{p^2}, (p+1)^2 points, the count read off
    the point list the check walks.

    The points are checked one cyclic subgroup at a time (_exponent_divides)
    until two walked subgroups, each of order dividing p + 1, span all
    (p+1)^2 points; a group without such a pair falls back to walking every
    cyclic subgroup.  E(F_q) is Z/n1 x Z/n2 (Washington, Elliptic Curves,
    Thm. 4.1), so the pair turns up within a few walks: 88 additions at
    p = 17 and 417 at p = 127, where walking every cyclic subgroup took 675
    and 26,559.
    """
    points = curve_points(E)
    F = E.field
    if F.a != 2:
        raise PrecheckFailed("expected a quadratic field F_{p^2}")
    if len(points) != (F.p + 1) ** 2:
        raise PrecheckFailed("curve is not in the tau = -p class")
    return _exponent_divides(E, points, F.p + 1)
