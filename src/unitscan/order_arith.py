"""Exact arithmetic in quotient rings O/p^k O of monogenic orders O = Z[theta].

The order is described by the monic integer polynomial f that theta
satisfies (degree 2 or 3).  Ring elements are coefficient vectors on the
power basis 1, theta[, theta^2], with entries reduced into [0, m) for m = p^k.
The ring (Z/m)[x]/(f) is written once per side: on tuples (the scalar
references) by the products mul2 and mul3 under the one power loop poly_pow,
and lane by lane (the scans) by Lanes(m, f), for both degrees and for Z/m
itself (f = (), d = 1), on int64 lanes only: constants of any size enter as
per-lane residues (residues).  Lanes.pow takes d-tuples in every ring and
w-bit digits, exact in int64 for the exact constants the scans raise (Lanes.table).
The quadratic and cubic scans decide on one Frobenius quotient, also once per
side: t in O/p with eps^p * sigma(eps)^-1 = 1 + p*t mod p^2 at an unramified p,
for the Frobenius sigma that the caller supplies (images of x, ..., x^(d-1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import gcd
from operator import add

import numpy as np

__all__ = [
    "OrderSpec",
    "poly_discriminant",
    "mul2",
    "mul3",
    "poly_pow",
    "ring_apply",
    "frobenius_quotient",
    "Lanes",
    "residues",
    "legendre",
    "inverse",
    "pow_lanes",
    "fold_rows",
]


def poly_discriminant(poly: tuple[int, ...]) -> int:
    """Discriminant of a monic polynomial, coefficients ascending.

    Supports degree 2 (c1^2 - 4 c0) and degree 3 (the standard resultant
    formula 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2 for x^3 + ax^2 + bx + c).
    """
    if poly[-1] != 1:
        raise ValueError("polynomial must be monic")
    if len(poly) == 3:
        c0, c1 = poly[0], poly[1]
        return c1 * c1 - 4 * c0
    if len(poly) == 4:
        c, b, a = poly[0], poly[1], poly[2]
        return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
    raise ValueError("only degrees 2 and 3 are supported")


@dataclass(frozen=True)
class OrderSpec:
    """A monogenic order Z[theta], theta a root of the monic defining_poly of
    degree 2 or 3 (coefficients ascending), with its discriminant."""

    defining_poly: tuple[int, ...]
    discriminant: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "discriminant", poly_discriminant(self.defining_poly))

    @property
    def degree(self) -> int:
        return len(self.defining_poly) - 1

    @property
    def reduction(self) -> tuple[int, ...]:
        """Non-leading coefficients (f0, f1[, f2]): the f of every ring function here."""
        return self.defining_poly[:-1]


# -- ring kernels on plain tuples -------------------------------------------

def mul2(a, b, f, m):
    """(a0+a1 x)(b0+b1 x) mod (x^2 + f1 x + f0, m); f = (f0, f1)."""
    a0, a1 = a
    b0, b1 = b
    t = a1 * b1
    return (a0 * b0 - f[0] * t) % m, (a0 * b1 + a1 * b0 - f[1] * t) % m


def mul3(a, b, f, m):
    """Product in (Z/m)[x]/(x^3 + f2 x^2 + f1 x + f0); f = (f0, f1, f2)."""
    f0, f1, f2 = f
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * b0
    c2 = a0 * b2 + a1 * b1 + a2 * b0
    c3 = a1 * b2 + a2 * b1
    c4 = a2 * b2
    # x^3 = -(f2 x^2 + f1 x + f0), x^4 = (f2^2-f1) x^2 + (f2 f1-f0) x + f2 f0
    return (
        (c0 - c3 * f0 + c4 * f2 * f0) % m,
        (c1 - c3 * f1 + c4 * (f2 * f1 - f0)) % m,
        (c2 - c3 * f2 + c4 * (f2 * f2 - f1)) % m,
    )


def poly_pow(a, e, f, m):
    """a^e in (Z/m)[x]/(f) by binary exponentiation, for exponents e >= 0 of
    any size and f = (f0, f1) or (f0, f1, f2), the degree being len(f)."""
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    mul = mul2 if len(f) == 2 else mul3
    a = tuple(c % m for c in a)
    r = a if e else (1 % m,) + (0,) * (len(f) - 1)
    for bit in bin(e)[3:]:  # left to right over the bits after the leading one
        r = mul(r, r, f, m)
        if bit == "1":
            r = mul(r, a, f, m)
    return r


def ring_apply(a, images, m):
    """a0 + a1 x + ... -> a0 + a1 s1 + ... mod m, for the images s1, ... of x, ..., x^(d-1)."""
    return tuple((sum(c * s[k] for c, s in zip(a[1:], images)) + (0 if k else a[0])) % m
                 for k in range(len(a)))


def _quotient(w, p):
    """t = (w - 1)/p for w = 1 mod p, on ints or lanes; ArithmeticError otherwise."""
    w = (w[0] - 1, *w[1:])
    bad = reduce(np.logical_or, [c % p != 0 for c in w])
    if np.any(bad):
        raise ArithmeticError(f"eps^p * sigma(eps^-1) is not 1 mod {np.extract(bad, p)[0]}: "
                              "impossible at an unramified prime, this indicates corrupt inputs")
    return tuple(c // p for c in w)


def frobenius_quotient(up, inv, images, f, p):
    """t in O/p with eps^p * sigma(eps^-1) = 1 + p*t mod (f, p^2), for up = eps^p
    mod p^2, the exact inverse inv of eps (any representative mod p^2 will do)
    and the images under sigma of x, ..., x^(d-1) mod p^2, d = len(f)."""
    m = p * p
    return _quotient((mul2 if len(f) == 2 else mul3)(up, ring_apply(inv, images, m), f, m), p)


# -- lane arithmetic: one numpy lane per modulus -------------------------------

MULMOD_PMAX = 1 << 25  # moduli below it multiply in plain int64; p^2 < 2^50 for primes below it
TABLE_MAX = 1 << 16  # entries of the largest per-constant table; past it legendre and inverse take Lanes.pow


def residues(c, m):
    """c mod m lane by lane, for an int (of any size) or int64 lanes c and int64
    moduli m: one int64 % when |c| < 2^63, else one Python % per lane."""
    if np.ndim(c) or abs(c) < 1 << 63:
        return c % m
    return np.array([c % x for x in m.tolist()], dtype=np.int64)


def _jacobi(a, n):  # (a/n) for odd n > 0, by reciprocity (H. Cohen, GTM 138, Algorithm 1.4.10)
    a %= n
    if not a & 1:
        return int(n == 1) if a == 0 else (-1 if n & 7 in (3, 5) else 1) * _jacobi(a >> 1, n)
    return (-1 if a & n & 3 == 3 else 1) * _jacobi(n, a)


@lru_cache(maxsize=None)
def _characters(a):  # (a/r) at odd r < 4|a|, 0 at even r
    return np.array([_jacobi(a, r) if r & 1 else 0 for r in range(4 * abs(a))], dtype=np.int8)


@lru_cache(maxsize=None)
def _inverses(c):  # r^-1 mod c at r < c, 0 where there is none
    return np.array([pow(r, -1, c) if gcd(r, c) == 1 else 0 for r in range(c)], dtype=np.int32)


def legendre(a, p):
    """(a/p) in {-1, 0, 1} lane by lane for an int a and odd primes p, read off p mod 4|a|
    (quadratic reciprocity) in a table cached per a; past TABLE_MAX by Euler's criterion,
    a^((p-1)/2) in {0, 1, p - 1}, shifted to {0, 1, -1} by (s + 1) % p - 1."""
    if 0 < 4 * abs(a) <= TABLE_MAX:
        return _characters(a)[p % (4 * abs(a))]
    return ((Lanes(p).pow((a,), (p - 1) >> 1)[0] + 1) % p - 1).astype(np.int8)


def inverse(c, p):
    """c^-1 mod p lane by lane for an int c and primes p < 2^34 not dividing it: ((1 - p*u) // c) % p
    for u = p^-1 mod |c| read off p mod |c| in a table cached per |c| (p*u < 2^50); by Fermat past TABLE_MAX."""
    if 0 < abs(c) <= TABLE_MAX:
        return (1 - p * _inverses(abs(c))[p % abs(c)]) // c % p
    return Lanes(p).pow((c,), p - 2)[0]


def pow_lanes(e, w, first, square, times):
    """Left-to-right powering lane by lane over the w-bit digits of e >= 0 (the
    largest e places them): r = first(d) at the leading digit d, then each later
    digit d squares r w times and applies times(r, d), the product by base^d;
    r stays in [0, m), or in (-m, m) for Lanes.pow to reduce once at the end."""
    digit = lambda shift: ((e >> shift) & ((1 << w) - 1)).astype(np.intp)
    top = max(int(e.max(initial=0)).bit_length() - 1, 0) // w * w
    r = first(digit(top))
    for shift in range(top - w, -1, -w):
        for _ in range(w):
            r = square(r)
        r = times(r, digit(shift))
    return r


def _sum(pairs, extra=None):
    """The sum of a*b over the pairs, plus extra unless it is None."""
    return reduce(add, [a * b for a, b in pairs] + ([] if extra is None else [extra]))


class Lanes:
    """(Z/m)[x]/(f) lane by lane, for an int64 array m of moduli (every m below
    2^50, or squares q^2 below 2^60) and the non-leading coefficients f of a
    monic f of degree d = len(f) in {2, 3}, or f = () for Z/m (d = 1).  Products
    act on d-tuples of residue arrays in [0, m) by one plan and fold by fold_rows(f)."""

    def __init__(self, m, f=()):
        self.m, self.d, self.rows = m, max(len(f), 1), fold_rows(f)
        top = int(m.max(initial=0))
        self.minv = 1.0 / m if MULMOD_PMAX <= top < 1 << 50 else None
        self.q = np.sqrt(m).round().astype(np.int64) if top >= 1 << 50 else None
        if self.q is not None and (top >= 1 << 60 or np.any(self.q * self.q != m)):
            raise ValueError(f"moduli from 2^50 must be squares below 2^60, got up to {top}")
        d = self.d
        self.one = (np.ones_like(m),) + (np.zeros_like(m),) * (d - 1)
        ks = [range(max(0, k - d + 1), min(k, d - 1) + 1) for k in range(2 * d - 1)]
        # operand pairs (i, j) of x^k: a product's (a_0.., b_0..), a square's (a_0.., 2a_1..)
        self.mul_plan = [[(i, d + k - i) for i in ij] for k, ij in enumerate(ks)]
        self.square_plan = [[(i, i if 2 * i == k else d + k - i - 1) for i in ij if 2 * i <= k]
                            for k, ij in enumerate(ks)]
        # for each x^k below x^d, the (j, c) of the entries c != 0 of fold row j, and with
        # c as per-lane residues, split once, when the fold goes through dot pairs (_product)
        self.folds = [[(j, r[k]) for j, r in enumerate(self.rows) if r[k]] for k in range(d)]
        self.lane_folds = ([[(j, self._split(residues(c, m))) for j, c in fold] for fold in self.folds]
                           if self.q is not None or _fold_sum(self.rows) >= 1 << 12 else None)

    def dot(self, pairs, extra=None):
        """(s = sum of a*b over the pairs + extra) mod m, for one to three pairs
        of a in [0, m) and b in [0, 2m) (b = 2a' in a square) whose products add
        up to below 3m^2, and |extra| < 2^62 (no extra term when None).

        While every modulus is below MULMOD_PMAX, s < 2^62 + 3 * 2^50 is exact
        in int64.  Below 2^50 this is the float-quotient MulMod of Shoup's NTL:
        q is s/m computed in float64 and truncated.  Its terms add up to at
        most 3m^2 + 2^62, and at most eight roundings of 2^-53 each put q
        within 8 * 2^-53 * (3m + 2^62/m) + 1 of s/m, so r = s - q*m has
        |r| < 2m + 8 * 2^-53 * (3m^2 + 2^62) < 2^53.  Wrapping int64
        arithmetic gets s and q*m right modulo 2^64, hence r exactly, and
        r % m is the residue.

        On squares m = q^2 < 2^60 the operands split into base-q digits,
        a = a0 + q*a1, and a*b = a0*b0 + q*(a0*b1 + a1*b0) mod m, for any
        three pairs: the low sum with extra stays below 3q^2 + 2^62, a pair's
        middle term below 3q^2 and two of them below 6q^2 < 2^63, so a third
        is added to their residue mod q, and low + q*(middle mod q) < 2^63."""
        return self._dot([(self._split(a), self._split(b)) for a, b in pairs], extra)

    def _split(self, x):  # x as its base-q digits (x // q, x % q) on the digit path
        return x if self.q is None else np.divmod(x, self.q)

    def _dot(self, pairs, extra=None):
        """dot on operands already split by _split, each split once per product."""
        if self.q is not None:
            q = self.q
            low, mid = 0 if extra is None else extra, 0
            for i, ((a1, a0), (b1, b0)) in enumerate(pairs):
                low = low + a0 * b0
                mid = (mid % q if i > 1 else mid) + a0 * b1 + a1 * b0
            return (low + q * (mid % q)) % self.m
        s = _sum(pairs, extra)
        if self.minv is not None:
            est = _sum([(a.astype(np.float64), b) for a, b in pairs], extra)
            s = s - (est * self.minv).astype(np.int64) * self.m
        return s % self.m

    def _product(self, operands, plan, reduction=None):
        """The sums of the plan, x^d, ..., x^(2d-2) first, folded back as the
        extra of the rest: by reduction(pairs, extra) and the exact fold rows, or
        by dot when reduction is None, through dot pairs of the per-lane fold
        entries where lane_folds holds them (the digit path, or a fold column
        sum of 2^12 or more: past the 2^62 extra term of dot for residues below 2^50)."""
        folds, fold = self.folds, lambda terms: reduce(add, [h if c == 1 else h * c for h, c in terms])
        split = lambda h: h
        if reduction is None:
            reduction, operands = self._dot, [self._split(x) for x in operands]
            if self.lane_folds is not None:
                folds, fold, split = self.lane_folds, self._dot, self._split
        high = [split(reduction([(operands[i], operands[j]) for i, j in ij])) for ij in plan[self.d:]]
        return tuple(reduction([(operands[i], operands[j]) for i, j in ij],
                               fold([(high[j], c) for j, c in f]) if f else None)
                     for ij, f in zip(plan, folds))

    def mul(self, a, b, reduction=None):
        return self._product((*a, *b), self.mul_plan, reduction)

    def square(self, a, reduction=None):
        """mul(a, a), each cross product a_i * a_j (i < j) taken once as a_i * 2 a_j."""
        return self._product((*a, *(c + c for c in a[1:])), self.square_plan, reduction)

    def mulmod(self, x, y):
        """x*y mod m in (-m, m), written over x, on the float path: r = x*y - q*m for
        q = rint(fl(x) * fl(y) * minv), exact in wrapping int64 since |r| < 2^63.
        Three roundings of 2^-53 put the estimate within |x*y/m| * 3 * 2^-53 of x*y/m.
        For |x|, |y| < m < 2^50 that is below 0.375, so q is off by at most 0.875 and
        |r| < 0.875 m; for y an entry of table, |x*y| < m*|y| < 2^63 by its width rule,
        so |y| < 2^63 / 2^25 = 2^38 is exact in float64 and q is off by at most 0.5 + 2^-13."""
        est = x.astype(np.float64)  # two temporaries, the rest in place: fresh arrays page-fault
        est *= est if y is x else y
        est *= self.minv
        q = np.rint(est, out=est).astype(np.int64)
        q *= self.m
        return np.subtract(np.multiply(x, y, out=x), q, out=x)

    def table(self, a):
        """The exact powers a^0, ..., a^(2^w - 1) of the d-tuple of ints a for the
        widest w <= 3 keeping each digit product r * a^k, r in [0, m), in int64:
        (sum of |a^k| + F) * max m < 2^63, F the fold's weight (_fold_sum; 0 for
        d = 1), since a coefficient of r * a^k is at most (m - 1) * sum of |a^k|
        from its pairs plus (m - 1) * F from the reduced high terms folded back.
        None when a^1 misses."""
        powers = [(1,) + (0,) * (self.d - 1)]
        while len(powers) < 8:
            powers.append(self._product((*powers[-1], *a), self.mul_plan, _sum))
        top, fold = int(self.m.max(initial=1)), _fold_sum(self.rows)
        fits = lambda t: (sum(map(abs, t)) + fold) * top < 1 << 63
        for w in (3, 2, 1):
            if all(map(fits, powers[: 1 << w])):
                return powers[: 1 << w]
        return None

    def pow(self, a, e):
        """a^e lane by lane for a d-tuple a and e >= 0 by pow_lanes.  Ints are one
        exact constant: each digit multiplies by table(a), gathered from d int64
        columns, with one exact product and reduction per coefficient; residues
        per lane, and ints with no table (as residues), take w = 1 and the full product mul.
        In Z/m on the float path each square and digit product is one mulmod on
        balanced residues in (-m, m), and one % ends the power.  Rings keep dot: two
        or three pairs per coefficient can put the quotient estimate more than 1 off near m = 2^50."""
        m = self.m
        balanced = self.d == 1 and self.minv is not None
        reduction = (lambda pairs, extra=None: self.mulmod(*pairs[0])) if balanced else None
        table = None if any(map(np.ndim, a)) else self.table(tuple(map(int, a)))
        if table is None:
            a = tuple(residues(c, m) for c in a)
            w, first = 1, lambda d: tuple(np.where(d == 1, c, o) for c, o in zip(a, self.one))
            times = lambda r, d: self.mul(r, first(d), reduction)
        else:
            cols = [np.array(c, dtype=np.int64) for c in zip(*table)]
            w, first = len(table).bit_length() - 1, lambda d: tuple(c[d] % m for c in cols)
            exact = reduction or (lambda pairs, extra=None: _sum(pairs, extra) % m)
            times = lambda r, d: self._product((*r, *(c[d] for c in cols)), self.mul_plan, exact)
        r = pow_lanes(e, w, first, lambda r: self.square(r, reduction), times)
        return r if reduction is None else (r[0] % m,)

    def apply(self, a, images):
        """a0 + a1 x + ... -> a0 + a1 s1 + ..., for the images s1, ... of x, ..., x^(d-1)."""
        return tuple(self.dot([(c, s[k]) for c, s in zip(a[1:], images)], None if k else a[0])
                     for k in range(self.d))

    def frobenius_quotient(self, p, up, inv, images):
        """frobenius_quotient lane by lane over m = p^2: up and the images are lanes
        mod m, inv the exact inverse (its entries enter as residues)."""
        return _quotient(self.mul(up, self.apply(tuple(residues(c, self.m) for c in inv), images)), p)


def fold_rows(f) -> list[tuple[int, ...]]:
    """x^d, ..., x^(2d-2) mod the monic f of degree d = len(f), as exact rows (none for f = ())."""
    rows = [tuple(-c for c in f)] if f else []
    while len(rows) < len(f) - 1:
        rows.append(tuple(lo - rows[-1][-1] * c for lo, c in zip((0,) + rows[-1][:-1], f)))
    return rows


def _fold_sum(rows) -> int:
    """The largest column sum of |rows| (0 for none): a product's fold term is at
    most this many times its largest reduced high coefficient."""
    return max((sum(map(abs, column)) for column in zip(*rows)), default=0)
