"""The benchmark's four seeded query workloads and their output checks.

A workload turns a seeded `random.Random` into an endless stream of queries
(plain tuples), runs one query against spinel's public functions through a
tracer `t` (every library call goes through `t.call(layer, fn, *args)`, so
the traced run can time each module at the boundary the benchmark controls),
and checks the answer with arithmetic of its own that does not reuse the
code path under test.  `check` returns the names of the failed checks.

Every workload draws its queries in fixed-composition blocks of 20: each
block holds the same multiset of query classes in a seeded order, and the
seed only picks the inputs inside a class.  Query costs span up to three
orders of magnitude and cluster by class, so under a free draw the run's mix,
and with it every timing, would depend on the seed, and a percentile that
falls between two clusters would jump between them.  The most expensive
class is 10% of each block, which keeps the 95th percentile inside one class.
"""

from __future__ import annotations

import math
from fractions import Fraction

from spinel import arith, curves, isogeny, lfunc, quat, spinspace, spinstruct

LAYERS = ("arith", "quat", "spinspace", "isogeny", "spinstruct", "lfunc", "curves")


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


_PRIMES = _primes_below(100_000)


def _primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in _PRIMES if lo <= p < hi]


def _legendre(a: int, p: int) -> int:
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def _blocks(rng, slots):
    """The slots of one block in a seeded order, block after block."""
    while True:
        block = list(slots)
        rng.shuffle(block)
        yield from block


def _hasse_ok(q: int, trace: int) -> bool:
    return trace * trace <= 4 * q


# --- spin-pipeline -----------------------------------------------------------

#: spin-pipeline block of 20: (prime group, n odd, sign of tau) and count.
#: Group 2 is p = 2; groups 3 and 1 are the primes = 3 resp. 1 mod 4 below
#: 2^16.  p = 2 with tau < 0 fills the middle 30% of the cost order, so the
#: median sits inside one class, and (3, even, -) is the top 10%
_SPIN_BLOCK = (
    ((3, True, 1), 1), ((1, True, 1), 1), ((3, True, -1), 1), ((1, True, -1), 1),
    ((1, False, 1), 1), ((1, False, -1), 1), ((3, False, 1), 1),
    ((2, True, -1), 6), ((2, False, -1), 5), ((3, False, -1), 2),
)
_SPIN_PRIMES = {
    2: [2],
    **{r: [p for p in _primes_in(3, 2**16) if p % 4 == r] for r in (1, 3)},
}
#: s values; 2n(1/2 - s) decides whether l_values stays exact or goes to mpmath
_S_VALUES = tuple(
    Fraction(x) for x in ("1", "2", "1/2", "1/4", "3/4", "1/3", "2/3", "3/2", "5/4", "1/6")
)
#: p^n is factored by trial division, so stay within its default bound
_FACTOR_BOUND = 2**48


def spin_stream(rng):
    slots = [slot for slot, k in _SPIN_BLOCK for _ in range(k)]
    for group, odd, sign in _blocks(rng, slots):
        n = rng.choice((1, 3, 5) if odd else (2, 4, 6))
        primes = _SPIN_PRIMES[group]
        while True:
            # rank k with probability 1/((k+1)(k+2)): small p dominate and repeat
            rank = int(rng.paretovariate(1.0)) - 1
            if rank < len(primes) and primes[rank] ** n <= _FACTOR_BOUND:
                break
        yield (primes[rank], n, sign, rng.choice(_S_VALUES))


def spin_run(query, t):
    p, n, sign, s = query
    out = {}
    c = t.call("spinstruct", spinstruct.spinorial_class, p, n, sign)
    out["cert"] = t.call("spinstruct", spinstruct.has_arithmetic_spin, c)
    B = t.call("quat", quat.b_p_infty, p)
    out["ramified"] = t.call("quat", quat.ramified_places, B)
    # the structure always has tau = -p^n; the +p^n twin reuses its involution
    if n % 2:
        S = t.call("spinstruct", spinstruct.construct_arithmetic_spin, p, n)
    else:
        S = t.call("spinstruct", spinstruct.construct_arithmetic_spin_even, p, n)
    out["structure"] = S
    if S is not None:
        out["disc"] = t.call("spinspace", S.sigma.discriminant)
        if sign > 0:
            S = spinstruct.SpinStructure(c, S.algebra, S.sigma, S.clifford)
        lift = t.call("spinstruct", spinstruct.spin_lift, spinstruct.WeilRep(S, sign * p**n))
        out["lift"] = lift
        if lift is not None:
            out["data"] = t.call("spinstruct", spinstruct.realizations, lift)
            out["cover"] = t.call("spinspace", spinspace.covering_map, lift.z)
    out["proof"] = t.call("lfunc", lfunc.verify_identity_exact, p, n)
    out["values"] = vals = t.call("lfunc", lfunc.l_values, p, n, s)
    if not isinstance(vals.l_curve, Fraction):
        t.count("lfunc.mpf")
    out["gauss"] = t.call("lfunc", lfunc.factor_over_gaussians, p, n)
    return out


def spin_check(query, out) -> list[str]:
    p, n, sign, s = query
    tau = sign * p**n
    bad = []
    if out["ramified"] != {p, arith.OO}:
        bad.append("b_p_infty-ramification")
    exists = n % 2 == 1 or p == 2 or p % 4 == 3
    if out["cert"].exists != (exists and sign < 0):
        bad.append("spin-existence")
    S = out["structure"]
    if (S is not None) != exists:
        bad.append("structure-existence")
    if S is not None:
        # squarefree part of -p^n: -p for odd n, -1 for even n
        if out["disc"] != (-p if n % 2 else -1):
            bad.append("disc")
        lift = out["lift"]
        # tau = +p^n is a square in K only when it is one in Q, i.e. n even
        if (lift is not None) != (sign < 0 or n % 2 == 0):
            bad.append("lift-existence")
        elif lift is not None:
            z = lift.z
            delta = z.ring.delta
            if (z.c * z.c + delta * z.d * z.d, 2 * z.c * z.d) != (tau, 0):
                bad.append("z-squared")
            cover = out["cover"]
            if (cover.c, cover.d) != (tau, 0):
                bad.append("covering-map")
            data = out["data"]
            if data.eigen_abs_sq != p**n:
                bad.append("eigen-abs-sq")
            if data.normalized_slope != Fraction(1, 4):
                bad.append("slope")
    proof = out["proof"]
    u = Fraction(1, 7)
    expected = 1 / (1 + p**n * u) ** 2
    if not proof.holds or proof.lhs.evaluate(u) != expected or proof.rhs.evaluate(u) != expected:
        bad.append("identity")
    if proof.vacuous != (not exists):
        bad.append("identity-vacuous")
    vals = out["values"]
    e = n * (1 - 2 * s)  # L(E, s) = 1/(1 + p^e)^2
    if e.denominator == 1:
        if not (
            isinstance(vals.l_curve, Fraction)
            and vals.l_curve == vals.l_spin_half_sq == 1 / (1 + Fraction(p) ** int(e)) ** 2
        ):
            bad.append("l-values-exact")
    else:
        approx = 1 / (1 + float(p) ** float(e)) ** 2
        if abs(vals.l_curve - vals.l_spin_half_sq) > 1e-30 or not math.isclose(
            float(vals.l_curve), approx, rel_tol=1e-9
        ):
            bad.append("l-values-mpf")
    if out["gauss"].product != (1, 0, 1):
        bad.append("gaussian-factorization")
    return bad


def spin_key(query):
    return query[:2]


# --- local-symbols -------------------------------------------------------------

#: a, b = +-(u P) / v with u, v <= 16 and P a prime from a size class.  Trial
#: division of the ab numerator runs until it has divided out the smaller of
#: the two P, so the pair of classes sets the query's cost; P < 10^5 keeps
#: every number the library factors below its 2^48 bound
_LOCAL_CLASSES = {
    "S": _primes_in(100, 1000),
    "M": _primes_in(1000, 10_000),
    "L": _primes_in(50_000, 100_000),
}
#: local-symbols block of 20: size classes of (a, b); (L, L) is the top 10%
_LOCAL_BLOCK = (
    (("S", "S"), 4), (("S", "M"), 4), (("M", "M"), 4),
    (("S", "L"), 3), (("M", "L"), 3), (("L", "L"), 2),
)
_SMOOTH_MAX = 16
#: find_pure_of_norm box; a miss scans all of it, and the library default of 50
#: takes minutes on an indefinite form
_BOX = 4


def _rational(rng, size):
    u = rng.choice((-1, 1)) * rng.randint(1, _SMOOTH_MAX)
    return Fraction(u * rng.choice(_LOCAL_CLASSES[size]), rng.randint(1, _SMOOTH_MAX))


def _pure_norm(a, b, w):
    """Nrd(w1 i + w2 j + w3 k) in (a, b | Q), straight from the formula."""
    return -a * w[0] ** 2 - b * w[1] ** 2 + a * b * w[2] ** 2


def local_stream(rng):
    slots = [pair for pair, k in _LOCAL_BLOCK for _ in range(k)]
    for pair in _blocks(rng, slots):
        size_a, size_b = rng.sample(pair, 2)
        a, b = _rational(rng, size_a), _rational(rng, size_b)
        if rng.random() < 0.5:
            # the norm of a pure quaternion with one nonzero coordinate inside
            # the box: a witness exists there, and m factors like a, b or ab
            w = [0, 0, 0]
            w[rng.randrange(3)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, _BOX), rng.randint(1, _BOX))
            m = _pure_norm(a, b, w)
        else:
            m = _rational(rng, "M")
        yield (a, b, m)


def local_run(query, t):
    a, b, m = query
    places = {2}
    for x in (a.numerator, a.denominator, b.numerator, b.denominator):
        places.update(t.call("arith", arith.factorize, x)[1])
    places = [arith.OO] + sorted(places)
    symbols = {v: t.call("arith", arith.hilbert_symbol, a, b, v) for v in places}
    B = t.call("quat", quat.QuaternionAlgebra, a, b)
    ramified = t.call("quat", quat.ramified_places, B)
    represents = t.call("arith", arith.ternary_represents, B.pure_norm_coefficients(), m)
    witness = t.call("quat", quat.find_pure_of_norm, B, m, _BOX)
    if witness is not None:
        t.count("quat.search_hit")
    return {"symbols": symbols, "ramified": ramified, "represents": represents, "witness": witness}


def local_check(query, out) -> list[str]:
    a, b, m = query
    bad = []
    symbols = out["symbols"]
    if math.prod(symbols.values()) != 1:
        bad.append("hilbert-product-formula")
    ramified = out["ramified"]
    if len(ramified) % 2 or ramified != {v for v, s in symbols.items() if s == -1}:
        bad.append("ramified-places")
    u = out["witness"]
    if u is not None:
        if u.x0 != 0 or _pure_norm(a, b, (u.x1, u.x2, u.x3)) != m:
            bad.append("witness")
        if not out["represents"]:
            bad.append("witness-without-representation")
    return bad


def local_key(query):
    return query[:2]


# --- small-fields and large-fields -------------------------------------------


def _neg_one_plus(lam: int, p: int) -> int:
    """-(1 + lam) in F_q under spinel's base-p digit encoding.

    Addition and negation act digit-wise, whatever the field modulus is.
    """
    digits = []
    while lam:
        lam, r = divmod(lam, p)
        digits.append(r)
    digits = digits or [0]
    digits[0] = (digits[0] + 1) % p
    return sum((-c % p) * p**i for i, c in enumerate(digits))


def _random_curve(rng, p: int, q: int) -> tuple[int, int, int, int, int]:
    """Weierstrass coefficients (a1, a2, a3, a4, a6) of a curve that is
    nonsingular by construction, so no draw needs the library to reject it.

    Odd p: Legendre form y^2 = x(x - 1)(x - lam), lam not 0 or 1.
    p = 2: y^2 + xy = x^3 + a2 x^2 + a6 (discriminant a6), or the
    supersingular y^2 + a3 y = x^3 + a4 x + a6 (discriminant a3^4).
    """
    if p == 2:
        if rng.random() < 0.75:
            return (1, rng.randrange(q), 0, 0, rng.randrange(1, q))
        return (0, 0, rng.randrange(1, q), rng.randrange(q), rng.randrange(q))
    lam = rng.randrange(2, q)
    return (0, _neg_one_plus(lam, p), 0, lam, 0)


def _prime_power(q: int) -> tuple[int, int]:
    for p in _PRIMES:
        if q % p == 0:
            a = 0
            while q % p == 0:
                q //= p
                a += 1
            return p, a
    raise ValueError(q)


def _census_ok(p: int, q: int) -> bool:
    # trace_census scans q^5 curves in characteristic 2: 1.2 s at q = 8
    return q <= 49 and (p != 2 or q <= 8)


#: small-fields block: q (all <= 256, so FiniteField builds full tables) and
#: how often it appears in a block of 20
_SMALL_BLOCK = ((4, 3), (9, 2), (25, 2), (49, 2), (16, 2), (32, 2), (64, 2), (81, 1), (101, 2), (121, 2))
_SMALL_CURVES = 3
#: find_q14_curve + verify_frobenius_scalar for these p; the group law behind
#: verify_frobenius_scalar needs the short form, so p >= 5
_SMALL_Q14_P = range(5, 14)

#: large-fields block of 20: prime q from narrow ranges (the count costs about
#: q times the raw multiplication cost, so a narrow range keeps the class
#: cost steady), fixed prime powers, and find_q14_curve +
#: verify_frobenius_scalar at p = 17 (q = 289) as the top 10%
_LARGE_BLOCK = (
    (_primes_in(257, 271), 6),
    ((361,), 1),
    (_primes_in(1009, 1063), 6),
    ((729,), 1),
    ((2401,), 1),
    (_primes_in(2003, 2089), 3),
)
_LARGE_Q14_P = 17
_LARGE_Q14_PER_BLOCK = 2


def small_stream(rng):
    slots = [q for q, k in _SMALL_BLOCK for _ in range(k)]
    for q in _blocks(rng, slots):
        p, _ = _prime_power(q)
        yield (
            "field",
            q,
            tuple(_random_curve(rng, p, q) for _ in range(_SMALL_CURVES)),
            _census_ok(p, q),
            p in _SMALL_Q14_P,
        )


def large_stream(rng):
    slots = [i for i, (_, k) in enumerate(_LARGE_BLOCK) for _ in range(k)]
    slots += [None] * _LARGE_Q14_PER_BLOCK
    for slot in _blocks(rng, slots):
        if slot is None:
            yield ("q14", _LARGE_Q14_P**2, (), False, True)
            continue
        q = rng.choice(_LARGE_BLOCK[slot][0])
        p, _ = _prime_power(q)
        yield ("field", q, (_random_curve(rng, p, q),), False, False)


def field_run(query, t):
    kind, q, curve_coeffs, census, q14 = query
    out = {}
    _, factors = t.call("arith", arith.factorize, q)
    [(p, a)] = factors.items()
    if kind == "field":
        F = t.call("curves", curves.FiniteField, p, a)
        if F.q <= 256:
            t.count("curves.tabled")
        counts = []
        for coeffs in curve_coeffs:
            E = t.call("curves", curves.WeierstrassCurve, F, *coeffs)
            n = t.call("curves", curves.count_points, E)
            beta = q + 1 - n
            cls = t.call("isogeny", isogeny.isogeny_class, p, a, beta) if _hasse_ok(q, beta) else None
            counts.append((n, cls))
        out["counts"] = counts
        if census:
            out["census"] = t.call("curves", curves.trace_census, F)
            out["classes"] = t.call("isogeny", isogeny.enumerate_classes, p, a)
    if q14:
        E = t.call("curves", curves.find_q14_curve, p)
        out["q14"] = E
        out["q14_points"] = t.call("curves", curves.count_points, E)
        out["frobenius"] = t.call("curves", curves.verify_frobenius_scalar, E)
    return out


def _q14_independent_count(E) -> int:
    """#E(F_{p^2}) from the curve's count over F_p, with integer Legendre symbols.

    Needs a short-form curve with coefficients in the prime field, which is
    what the base-change route of find_q14_curve returns; #E(F_{p^2}) is then
    p^2 + 1 - (t^2 - 2p) with t the trace over F_p.  Any other curve gets -1
    and fails its check, since this count cannot confirm it.
    """
    p = E.field.p
    if (E.a1, E.a2, E.a3) != (0, 0, 0) or max(E.a4, E.a6) >= p:
        return -1
    n1 = p + 1 + sum(_legendre(x**3 + E.a4 * x + E.a6, p) for x in range(p))
    t1 = p + 1 - n1
    return p * p + 1 - (t1 * t1 - 2 * p)


def field_check(query, out) -> list[str]:
    kind, q, _, census, q14 = query
    bad = []
    for n, cls in out.get("counts", ()):
        beta = q + 1 - n
        if not _hasse_ok(q, beta):
            bad.append("hasse-bound")
        elif cls is None or cls.beta != beta:
            bad.append("isogeny-class")
    if census and out["census"] != {c.beta for c in out["classes"]}:
        bad.append("census")
    if q14:
        E = out["q14"]
        p = E.field.p
        target = (p + 1) ** 2
        if (E.field.q, out["q14_points"], _q14_independent_count(E)) != (p * p, target, target):
            bad.append("q14-points")
        if out["frobenius"] is not True:
            bad.append("frobenius-scalar")
    return bad


def field_key(query):
    return query[1]


class Workload:
    def __init__(self, name, stream, run, check, key, block, trace_queries):
        self.name = name
        self.stream = stream
        self.run = run
        self.check = check
        self.key = key
        #: queries per fixed-composition block
        self.block = block
        #: queries in one pass of the traced run; a multiple of the block size
        self.trace_queries = trace_queries


def _block_size(block) -> int:
    return sum(k for _, k in block)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spin-pipeline", spin_stream, spin_run, spin_check, spin_key,
                 _block_size(_SPIN_BLOCK), 1500),
        Workload("local-symbols", local_stream, local_run, local_check, local_key,
                 _block_size(_LOCAL_BLOCK), 2000),
        Workload("small-fields", small_stream, field_run, field_check, field_key,
                 _block_size(_SMALL_BLOCK), 80),
        Workload("large-fields", large_stream, field_run, field_check, field_key,
                 _block_size(_LARGE_BLOCK) + _LARGE_Q14_PER_BLOCK, 60),
    )
}
