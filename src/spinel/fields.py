"""Finite fields F_{p^a} with exact log-table arithmetic.

F_{p^a} is realized as F_p[x]/(m(x)) for the lexicographically smallest
monic irreducible m (coefficients compared constant term first), found by
trial division by every monic polynomial of degree at most a/2, so all
field data is deterministic and reproducible.  Elements are ints in
[0, q), encoding coefficient vectors in base p, constant term last digit.
Every field, whatever q, computes through one representation: exp/log
tables of a fixed primitive element plus Zech logarithms, O(q) entries built
at construction by walking the powers of that element: u -> u g mod p for a
prime field, and for a > 1 lookups in the multiplication table of g, which is
built over all q elements from linearity on bytes columns of output digits,
from the rows g x^i, each the one before times x.
The same table walk, at most q - 1 steps, decides whether a candidate g is
primitive.  One more list, indexed like exp, counts solutions (see sols).

A prime field is built on every call, in one doubling walk.  An extension
field (a > 1) is built once per process: FiniteField(p, a) returns the
instance already built for (p, a) while it is kept, and the kept fields'
orders sum to at most MAX_FIELD_ORDER, the least recently used dropped
first.  The argument checks run on every call before the lookup, so an
error is raised each time and never kept.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from itertools import product, repeat
from operator import index

from .arith import factorize, is_prime
from .errors import FieldTooLarge, NotPrime

#: refuse to construct F_q beyond this order; construction builds O(q) tables
MAX_FIELD_ORDER = 2**14


def _remainder(f: tuple[int, ...], d: tuple[int, ...], p: int) -> list[int]:
    """f mod the monic d in F_p[x], coefficients ascending: the len(d) - 1 low ones."""
    rem = list(f)
    while len(rem) >= len(d):
        c = rem.pop()  # cancel the top term with c x^shift d
        if c:
            shift = len(rem) - len(d) + 1
            for i, dc in enumerate(d[:-1]):
                rem[shift + i] = (rem[shift + i] - c * dc) % p
    return rem


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Whether the monic m of degree a > 1, coefficients ascending, has no
    monic divisor of degree 1 to a/2: a reducible m has a factor that small."""
    a = len(m) - 1
    return all(
        any(_remainder(m, d + (1,), p))
        for k in range(1, a // 2 + 1)
        for d in product(range(p), repeat=k)
    )


def _smallest_modulus(p: int, a: int) -> tuple[int, ...]:
    """First irreducible monic of degree a, coefficients (c0,...,c_{a-1}) in lex order.

    For a > 1 every candidate with c0 = 0 is divisible by x, so the scan
    starts at c0 = 1, and each candidate is tried by trial division.
    """
    if a == 1:
        return (0,)  # x: every monic linear polynomial is irreducible
    for tail in product(range(1, p), *[range(p)] * (a - 1)):
        if _is_irreducible(tail + (1,), p):
            return tail
    raise AssertionError("irreducible polynomials of every degree exist")


def _prime_field_powers(p: int) -> list[int]:
    """[g^0, ..., g^(p-2)] for the least primitive root g mod p.

    g is the first residue with g^((p-1)/r) != 1 for every prime r | p - 1.
    The walk u -> u g doubles: g^n, ..., g^(2n-1) is g^n times the block
    g^0, ..., g^(n-1), one list comprehension per block.
    """
    order = p - 1
    primes = factorize(order)[1]
    g = next(g for g in range(1, p) if all(pow(g, order // r, p) != 1 for r in primes))
    powers = [1]
    while len(powers) < order:
        h = powers[-1] * g % p
        powers += [u * h % p for u in powers[: order - len(powers)]]
    return powers


#: the extension fields built so far by (p, a), least recently used first;
#: their orders sum to at most MAX_FIELD_ORDER
_EXTENSIONS: OrderedDict[tuple[int, int], FiniteField] = OrderedDict()


class _OneExtensionEach(type):
    """Checks (p, a) on every call, then builds a prime field afresh and an
    extension field only when _EXTENSIONS does not hold it."""

    def __call__(cls, p: int, a: int = 1) -> FiniteField:
        p, a = index(p), index(a)  # a float is refused, not matched to an int key
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
        if a == 1:
            return super().__call__(p, a)
        F = _EXTENSIONS.get((p, a))
        if F is None:
            F = _EXTENSIONS[p, a] = super().__call__(p, a)
            while sum(G.q for G in _EXTENSIONS.values()) > MAX_FIELD_ORDER:
                _EXTENSIONS.popitem(last=False)
        else:
            _EXTENSIONS.move_to_end((p, a))
        return F


class FiniteField(metaclass=_OneExtensionEach):
    """F_{p^a} with int-encoded elements and exact log-table arithmetic.

    A primitive element g is fixed at construction.  exp[k] = g^k and
    log[g^k] = k turn products, inverses and powers into index arithmetic,
    and Zech logarithms zech[k] = log(1 + g^k) do the same for sums:
    g^i + g^j = g^(i + zech[j - i]) (Lidl & Niederreiter, Finite Fields).
    Zero gets the log 2(q - 1), which points into a run of zeros at the end
    of exp, so a product or sum that is zero needs no branch.  sols, indexed
    like exp, counts the y over one x where a curve's reduced equation reads
    g^k: sols[k] = #{w : w^2 = g^k} for odd p, #{z : z^2 + z = g^k} for
    p = 2, and the zero run holds the count at 0.  An extension
    field is one instance shared by every caller (see the module docstring),
    so nothing may change its tables.
    """

    def __init__(self, p: int, a: int = 1):
        # the metaclass has checked p and a
        self.p = p
        self.a = a
        self.q = q = p**a
        self.modulus = _smallest_modulus(p, a)  # x^a + sum modulus[i] x^i
        self._neg_shift = (q - 1) // 2 if p > 2 else 0  # log(-1)
        powers = _prime_field_powers(p) if a == 1 else self._extension_powers()
        # two periods, so a sum of two logs needs no reduction mod q - 1, then
        # zeros for every index reached from the log of zero
        self._exp = exp = powers * 2
        exp.extend(repeat(0, 2 * q - 1))
        self._log = log = [2 * (q - 1)] * q
        for k, u in enumerate(powers):
            log[u] = k
        # 1 + u changes only the constant digit of u: shift the log table by
        # one and wrap every run of p encodings at its constant digit p - 1
        succ = log[1:] + log[:1]
        succ[p - 1 :: p] = log[::p]
        self._zech = zech = list(map(succ.__getitem__, powers))
        if p == 2:
            # z^2 + z = z (z + 1) has the log k + zech[k] at z = g^k, and z = 1
            # gives the log of zero: mark the values hit, read two periods by
            # log, and z^2 + z = 0 has the two roots 0 and 1
            hit = [0] * q
            for k, z in enumerate(zech):
                hit[exp[k + z]] = 2
            sols, at_zero = list(map(hit.__getitem__, powers)) * 2, 2
        else:
            # w^2 = g^k has 2 roots for even k and none for odd k, w^2 = 0 one
            sols, at_zero = [2, 0] * (q - 1), 1
        sols.extend(repeat(at_zero, 2 * q - 1))
        self._sols = sols

    def decode(self, u: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.a):
            out.append(u % self.p)
            u //= self.p
        return tuple(out)

    def from_int(self, c: int) -> int:
        """The image of the integer constant c."""
        return c % self.p

    def elements(self) -> range:
        return range(self.q)

    def _extension_powers(self) -> list[int]:
        """[g^0, ..., g^(q-2)] for the first primitive g, for a > 1.

        Each candidate g, from p up (the constants 1..p-1 have order dividing
        p - 1 < q - 1), gets its whole multiplication table from linearity,
        g (u + d p^i) = g u + d g x^i, built on columns of output digits as
        bytes, so adding the constant digit of d g x^i to a column is one
        translate.  Each row g x^i is the row before times x.  The columns
        are summed with their weights p^j in one big int of 16-bit lanes
        (q <= 2^14, so no lane carries), read back as the table, and the orbit
        1, g, g^2, ... is walked by lookups: g is primitive when it has q - 1
        elements.  An orbit not back at 1 by then means a reducible modulus.
        """
        p, a, q = self.p, self.a, self.q
        shifts = [bytes((v + d) % p for v in range(256)) for d in range(p)]
        lanes = bytearray(2 * q)
        low = sys.byteorder == "big"  # where a native 16-bit lane keeps its low byte
        for g in range(p, q):
            columns, row = [b"\0"] * a, self.decode(g)
            for _ in range(a):
                columns = [
                    b"".join(col.translate(shifts[d * s % p]) for d in range(p))
                    for col, s in zip(columns, row)
                ]
                # g x^(i+1) = g x^i times x: shift the digits up one place, dropping
                # the top digit t, and subtract t modulus, as x^a = -sum modulus[j] x^j
                t = row[-1]
                row = [(s - t * c) % p for s, c in zip((0, *row[:-1]), self.modulus)]
            total = 0
            for j, col in enumerate(columns):
                lanes[low::2] = col
                total += int.from_bytes(lanes, sys.byteorder) * p**j
            table = memoryview(total.to_bytes(2 * q, sys.byteorder)).cast("H").tolist()
            powers, u = [1], g
            for _ in range(q - 2):
                if u == 1:
                    break
                powers.append(u)
                u = table[u]
            if u != 1:  # g^(q-1) = 1 in a field: this table is no field's
                raise AssertionError(
                    f"the powers of g = {g} miss 1 in {q - 1} steps: the modulus "
                    f"{self.modulus} of F_{q} is reducible"
                )
            if len(powers) == q - 1:
                return powers
        raise AssertionError("the multiplicative group of a finite field is cyclic")

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

    def __str__(self) -> str:
        return f"F_{self.q}"
