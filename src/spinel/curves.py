"""Brute-force elliptic curve counts over small finite fields.

This is the experimental side of the package: everything here is direct
computation (point counts, census of traces, pointwise Frobenius checks),
used to cross-check the isogeny classification and the spinorial classes
without going through any of that theory.

F_{p^a} is realized as F_p[x]/(m(x)) for the lexicographically smallest
monic irreducible m (coefficients compared constant term first), so all
field data is deterministic and reproducible.  Elements are ints in
[0, q), encoding coefficient vectors in base p, constant term last digit.
Every field, whatever q, computes through one representation: exp/log
tables of a fixed primitive element plus Zech logarithms, O(q) entries built
at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from operator import mul as _times
from typing import Iterator, Optional

from .arith import factorize, is_prime
from .errors import FieldTooLarge, NotPrime, PrecheckFailed, SearchExhausted

#: refuse brute force beyond this field size
DEFAULT_FIELD_CAP = 10_000

#: refuse to construct F_q beyond this order; construction builds O(q) tables
MAX_FIELD_ORDER = 2**14

#: refuse a trace census whose normal-form scan exceeds this many point evaluations
MAX_CENSUS_EVALUATIONS = 10**7


def _poly_divides(d: tuple[int, ...], f: tuple[int, ...], p: int) -> bool:
    """Does monic d divide monic f in F_p[x]?  Coefficients ascending."""
    rem = list(f)
    while len(rem) >= len(d):
        c = rem[-1] % p
        if c:
            shift = len(rem) - len(d)
            for i, dc in enumerate(d):
                rem[shift + i] = (rem[shift + i] - c * dc) % p
        rem.pop()
    return all(c % p == 0 for c in rem)


def _monic_polys(p: int, deg: int) -> Iterator[tuple[int, ...]]:
    for coeffs in product(range(p), repeat=deg):
        yield coeffs + (1,)


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    deg = len(m) - 1
    if m[0] == 0:
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            if _poly_divides(cand, m, p):
                return False
    return True


def _smallest_modulus(p: int, a: int) -> tuple[int, ...]:
    """First irreducible monic of degree a, coefficients (c0,...,c_{a-1}) in lex order."""
    for tail in product(range(p), repeat=a):
        m = tail + (1,)
        if _is_irreducible(m, p):
            return tail
    raise AssertionError("irreducible polynomials of every degree exist")


class FiniteField:
    """F_{p^a} with int-encoded elements and exact log-table arithmetic.

    A primitive element g is fixed at construction.  exp[k] = g^k and
    log[g^k] = k turn products, inverses and powers into index arithmetic,
    and Zech logarithms zech[k] = log(1 + g^k) do the same for sums:
    g^i + g^j = g^(i + zech[j - i]) (Lidl & Niederreiter, Finite Fields).
    Zero gets the log 2(q - 1), which points into a run of zeros at the end
    of exp, so a product or sum that is zero needs no branch.
    """

    def __init__(self, p: int, a: int = 1):
        if a < 1:
            raise ValueError("a must be positive")
        # p^a >= 2^a, so a long exponent is over the limit without computing p^a
        if p >= 2 and (a >= MAX_FIELD_ORDER.bit_length() or p**a > MAX_FIELD_ORDER):
            shown = f"{p}^{a} = {p**a}" if a * p.bit_length() <= 256 else f"{p}^{a}"
            raise FieldTooLarge(
                f"F_q with p = {p}, a = {a}: q = {shown} exceeds the field "
                f"construction limit {MAX_FIELD_ORDER}"
            )
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.a = a
        self.q = q = p**a
        self.modulus = _smallest_modulus(p, a)  # x^a + sum modulus[i] x^i
        self._neg_shift = (q - 1) // 2 if p > 2 else 0  # log(-1)
        powers = self._powers(self._primitive_element())
        # two periods, so a sum of two logs needs no reduction mod q - 1, then
        # zeros for every index reached from the log of zero
        self._exp = powers + powers + [0] * (2 * q - 1)
        self._log = log = [2 * (q - 1)] * q
        for k, u in enumerate(powers):
            log[u] = k
        # 1 + u changes only the constant digit of u
        self._zech = [log[u - u % p + (u + 1) % p] for u in powers]

    def decode(self, u: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.a):
            out.append(u % self.p)
            u //= self.p
        return tuple(out)

    def encode(self, coeffs: tuple[int, ...]) -> int:
        u = 0
        for c in reversed(coeffs):
            u = u * self.p + c % self.p
        return u

    def from_int(self, c: int) -> int:
        """The image of the integer constant c."""
        return c % self.p

    def elements(self) -> range:
        return range(self.q)

    def _mul_raw(self, u: int, v: int) -> int:
        """Schoolbook product mod the modulus; only the table builder uses it."""
        cu, cv = self.decode(u), self.decode(v)
        prod = [0] * (2 * self.a - 1)
        for i, ci in enumerate(cu):
            if ci:
                for j, cj in enumerate(cv):
                    prod[i + j] += ci * cj
        # fold down with x^a = -modulus
        for deg in range(2 * self.a - 2, self.a - 1, -1):
            c = prod[deg] % self.p
            prod[deg] = 0
            if c:
                for i, mc in enumerate(self.modulus):
                    prod[deg - self.a + i] -= c * mc
        return self.encode(tuple(c % self.p for c in prod[: self.a]))

    def _primitive_element(self) -> int:
        """The first u in 1..q-1 with u^((q-1)/r) != 1 for every prime r | q - 1."""
        order = self.q - 1
        primes = factorize(order)[1]
        # for a > 1 the constants 1..p-1 have order dividing p - 1 < q - 1
        for g in range(1 if self.a == 1 else self.p, self.q):
            if all(self._pow_raw(g, order // r) != 1 for r in primes):
                return g
        raise AssertionError("the multiplicative group of a finite field is cyclic")

    def _pow_raw(self, u: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, u)
            u = self._mul_raw(u, u)
            e >>= 1
        return out

    def _powers(self, g: int) -> list[int]:
        """[g^0, ..., g^(q-2)]: multiplication by g is F_p-linear on the digits."""
        p, a = self.p, self.a
        columns = list(zip(*(self.decode(self._mul_raw(g, p**i)) for i in range(a))))
        weights = [p**i for i in range(a)]
        out = []
        digits = [1] + [0] * (a - 1)
        for _ in range(self.q - 1):
            out.append(sum(map(_times, digits, weights)))
            digits = [sum(map(_times, digits, col)) % p for col in columns]
        return out

    def add(self, u: int, v: int) -> int:
        if u and v:
            log = self._log
            lu = log[u]
            # a negative index wraps mod q - 1, the length of the Zech table
            return self._exp[lu + self._zech[log[v] - lu]]
        return u or v

    def mul(self, u: int, v: int) -> int:
        log = self._log
        return self._exp[log[u] + log[v]]

    def neg(self, u: int) -> int:
        return self._exp[self._log[u] + self._neg_shift]

    def sub(self, u: int, v: int) -> int:
        return self.add(u, self.neg(v))

    def pow(self, u: int, e: int) -> int:
        if u == 0:
            if e < 0:
                raise ZeroDivisionError("0 is not invertible")
            return 0 if e else 1
        return self._exp[self._log[u] * e % (self.q - 1)]

    def inv(self, u: int) -> int:
        if u == 0:
            raise ZeroDivisionError("0 is not invertible")
        return self._exp[self.q - 1 - self._log[u]]

    def sqrt_counts(self) -> list[int]:
        """counts[v] = #{w : w^2 = v}, read off the parity of log v."""
        if self.p == 2:
            return [1] * self.q  # squaring is a bijection in characteristic 2
        return [1] + [2 - 2 * (k & 1) for k in self._log[1:]]

    def sqrts(self, u: int) -> tuple[int, ...]:
        """All w with w^2 = u, from half the log of u."""
        if u == 0:
            return (0,)
        k = self._log[u]
        if self.p == 2:
            # q - 1 is odd, so exactly one of k and k + q - 1 is even
            return (self._exp[(k + (k & 1) * (self.q - 1)) // 2],)
        if k & 1:
            return ()
        w = self._exp[k // 2]
        return (w, self.neg(w))

    def artin_schreier_image(self) -> frozenset[int]:
        """{z^2 + z} for char 2; solvability set of y^2 + y = d."""
        return frozenset(self.add(self.mul(z, z), z) for z in self.elements())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.a, self.modulus) == (other.p, other.a, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.modulus))

    def __str__(self) -> str:
        return f"F_{self.q}"


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, nonsingular, over F."""

    field: FiniteField
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
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

    def rhs(self, x: int) -> int:
        """x^3 + a2 x^2 + a4 x + a6."""
        F = self.field
        x2 = F.mul(x, x)
        return F.add(
            F.add(F.mul(x2, x), F.mul(self.a2, x2)),
            F.add(F.mul(self.a4, x), self.a6),
        )

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


def _check_cap(F: FiniteField) -> None:
    if F.q > DEFAULT_FIELD_CAP:
        raise FieldTooLarge(f"q = {F.q} exceeds brute-force cap {DEFAULT_FIELD_CAP}")


def count_points(E: WeierstrassCurve) -> int:
    """#E(F_q) including the point at infinity, by direct enumeration.

    Odd characteristic: complete the square, (2y + a1 x + a3)^2 = 4*rhs + h^2,
    and read solution counts off the parity of logs (sqrt_counts).
    Characteristic 2: for h = a1 x + a3 nonzero substitute y = h z to reach
    z^2 + z = rhs/h^2 and use the Artin-Schreier image; h = 0 leaves the
    bijective y -> y^2.
    """
    F = E.field
    _check_cap(F)
    n = 1
    if F.p == 2:
        image = F.artin_schreier_image()
        for x in F.elements():
            h = F.add(F.mul(E.a1, x), E.a3)
            d = E.rhs(x)
            if h == 0:
                n += 1
            else:
                h2i = F.inv(F.mul(h, h))
                n += 2 if F.mul(d, h2i) in image else 0
        return n
    counts = F.sqrt_counts()
    four = F.from_int(4)
    for x in F.elements():
        h = F.add(F.mul(E.a1, x), E.a3)
        disc = F.add(F.mul(four, E.rhs(x)), F.mul(h, h))
        n += counts[disc]
    return n


def trace_of(E: WeierstrassCurve) -> int:
    return E.field.q + 1 - count_points(E)


def is_supersingular(E: WeierstrassCurve) -> bool:
    """p divides the trace; over F_p (p >= 5) equivalent to trace = 0."""
    return trace_of(E) % E.field.p == 0


def _census_rows(F: FiniteField) -> list[tuple]:
    """The normal forms of trace_census as rows (curve, values, singular).

    A row scans the curves curve(c) for every constant c not in singular;
    curve(c) gives the a-invariants, and its trace is len(values) minus the
    sum of sol[v + c] over v in values, where sol[d] counts the y over one x.
    In odd characteristic sol[d] is the number of square roots of d.  In
    characteristic 2, y = h z turns y^2 + h y = d into z^2 + z = d / h^2,
    which has 2 or 0 roots as d / h^2 is in the Artin-Schreier image or not;
    values holds d / h^2 less the constant, and leaves out each x with
    h(x) = 0, which has exactly one point.
    """
    add, mul = F.add, F.mul
    xs = F.elements()
    sq = [mul(x, x) for x in xs]
    cube = [mul(s, x) for s, x in zip(sq, xs)]
    if F.p == 2:
        # y^2 + xy = x^3 + a2 x^2 + a6, constant a2: h = x, and each x != 0
        # has the value x + a6 / x^2
        rows = [
            (lambda c, a6=a6: (1, c, 0, 0, a6),
             [add(x, mul(a6, F.inv(s))) for x, s in zip(xs[1:], sq[1:])], ())
            for a6 in xs[1:]
        ]
        # y^2 + a3 y = x^3 + a4 x + a6 with a6 = c a3^2: h = a3, and each x
        # has the value (x^3 + a4 x) / a3^2
        for a3, a4 in product(xs[1:], xs):
            w = F.inv(sq[a3])
            rows.append(
                (lambda c, a3=a3, a4=a4: (0, 0, a3, a4, mul(c, sq[a3])),
                 [mul(add(u, mul(a4, x)), w) for u, x in zip(cube, xs)], ())
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
        (lambda c, a2=a2, a4=a4: (0, a2, 0, a4, c),
         [add(add(u, mul(a2, s)), mul(a4, x)) for u, s, x in zip(cube, sq, xs)],
         singular)
        for a2, a4, singular in outer
    ]


def _census_size(F: FiniteField) -> int:
    """Point evaluations of the census scan: rows x constants x q."""
    q = F.q
    rows = q * q - 1 if F.p == 2 else 2 * (q - 1) if F.p == 3 else 1 + gcd(4, q - 1)
    return rows * q * q


def _census_scan(F: FiniteField) -> Iterator[tuple[tuple[int, int, int, int, int], int]]:
    """(a-invariants, trace) for every curve of the normal-form scan."""
    if F.p == 2:
        image = F.artin_schreier_image()
        sol = [2 * (d in image) for d in F.elements()]
    else:
        sol = F.sqrt_counts()
    rows = _census_rows(F)
    add = F.add
    for c in F.elements():
        count = [sol[add(d, c)] for d in F.elements()].__getitem__
        for curve, values, singular in rows:
            if c not in singular:
                yield curve(c), len(values) - sum(map(count, values))


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
      k < gcd(4, q - 1), g the field's primitive element.

    The stated conditions are exactly nonsingularity.  Raises FieldTooLarge
    before any scanning if the scan needs more than MAX_CENSUS_EVALUATIONS
    point evaluations.
    """
    _check_cap(F)
    size = _census_size(F)
    if size > MAX_CENSUS_EVALUATIONS:
        raise FieldTooLarge(
            f"trace census over F_{F.q}: the normal-form scan needs {size} point "
            f"evaluations, over the census limit {MAX_CENSUS_EVALUATIONS}"
        )
    return {trace for _, trace in _census_scan(F)}


# short-form group law, p >= 5; points are (x, y) pairs or None for infinity

Point = Optional[tuple[int, int]]


def _require_short(E: WeierstrassCurve) -> None:
    if E.field.p < 5 or not E.is_short():
        raise PrecheckFailed("group law implemented for short form, p >= 5 only")


def point_neg(E: WeierstrassCurve, P: Point) -> Point:
    if P is None:
        return None
    x, y = P
    return (x, E.field.neg(y))


def point_add(E: WeierstrassCurve, P: Point, Q: Point) -> Point:
    """Chord-tangent addition."""
    _require_short(E)
    F = E.field
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and F.add(y1, y2) == 0:
        return None
    if P == Q:
        num = F.add(F.mul(F.from_int(3), F.mul(x1, x1)), E.a4)
        den = F.mul(F.from_int(2), y1)
    else:
        num = F.sub(y2, y1)
        den = F.sub(x2, x1)
    lam = F.mul(num, F.inv(den))
    x3 = F.sub(F.sub(F.mul(lam, lam), x1), x2)
    y3 = F.sub(F.mul(lam, F.sub(x1, x3)), y1)
    return (x3, y3)


def point_mul(E: WeierstrassCurve, m: int, P: Point) -> Point:
    """[m]P by double and add; negative m through the involution."""
    if m < 0:
        return point_mul(E, -m, point_neg(E, P))
    out: Point = None
    base = P
    while m:
        if m & 1:
            out = point_add(E, out, base)
        base = point_add(E, base, base)
        m >>= 1
    return out


def curve_points(E: WeierstrassCurve) -> list[Point]:
    """All points of E(F_q), infinity first.  Short form only."""
    _require_short(E)
    _check_cap(E.field)
    F = E.field
    pts: list[Point] = [None]
    for x in F.elements():
        for y in F.sqrts(E.rhs(x)):
            pts.append((x, y))
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
    _check_cap(F)
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
    is re-verified directly.  Falls back to scanning F_{p^2} families if the
    base-change route somehow fails, and raising SearchExhausted after that
    would falsify the classification.
    """
    F2 = FiniteField(p, 2)
    _check_cap(F2)
    target = (p + 1) ** 2
    try:
        E0 = find_trace_zero_curve(p)
    except SearchExhausted:
        E0 = None
    if E0 is not None:
        # constants embed as themselves under the int encoding
        E = WeierstrassCurve(F2, E0.a1, E0.a2, E0.a3, E0.a4, E0.a6)
        if count_points(E) == target:
            return E
    for coeffs in _reduced_family(F2):
        try:
            E = WeierstrassCurve(F2, *coeffs)
        except ValueError:
            continue
        if count_points(E) == target:
            return E
    raise SearchExhausted(f"no curve with {target} points over F_{p**2}")


def verify_frobenius_scalar(E: WeierstrassCurve) -> bool:
    """Check [p+1]P = O for every rational point of E/F_{p^2}.

    With the precondition #E(F_{p^2}) = (p+1)^2 this certifies that
    E(F_{p^2}) has exponent p + 1, hence is (Z/(p+1))^2 = E[p+1]: the whole
    (p+1)-torsion is rational, so Frobenius, which fixes every rational
    point, acts on it as 1 = -p mod p + 1.  This is the same test as
    (x^q, y^q) = [-p]P, since x^q = x for every x in F_q.  Preconditions:
    short form, p >= 5, field F_{p^2}, (p+1)^2 points.
    """
    _require_short(E)
    F = E.field
    if F.a != 2:
        raise PrecheckFailed("expected a quadratic field F_{p^2}")
    if count_points(E) != (F.p + 1) ** 2:
        raise PrecheckFailed("curve is not in the tau = -p class")
    return all(point_mul(E, F.p + 1, P) is None for P in curve_points(E))
