"""Exact arithmetic in quotient rings O/p^k O of monogenic orders O = Z[theta].

The order is described by the monic integer polynomial f that theta satisfies (degree
2 or 3 in an OrderSpec).  Ring elements are coefficient vectors on the power basis 1,
theta, ..., with entries reduced into [0, m) for m = p^k.  The ring (Z/m)[x]/(f) is
written once per side: on tuples (the scalar references) by the products mul2 and mul3
under the one power loop poly_pow, and lane by lane (the scans) by Lanes(m, f), for a
monic f of any degree d and Z/m itself (f = (), d = 1), on int64 lanes: constants of any
size enter as per-lane residues (residues).  Lanes.pow is the one lane power, in every
ring; below 2^50 its squares and digit products take balanced residues and a float64
quotient with no int64 % (Lanes.mulmod, Lanes._square, Lanes._near), and one % ends it.
The per-prime classifiers decide on the Frobenius quotient (frobenius_quotient):
t in O/p with eps^p * sigma(eps)^-1 = 1 + p*t mod p^2 at an unramified p, for
the Frobenius sigma that the caller supplies (images of x, ..., x^(d-1)).  The
lane scans take no quotient: they decide from eps^p mod p^2 itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from operator import add, iadd

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


def frobenius_quotient(up, inv, images, f, p):
    """t in O/p with eps^p * sigma(eps^-1) = 1 + p*t mod (f, p^2), for up = eps^p
    mod p^2, the exact inverse inv of eps (any representative mod p^2 will do)
    and the images under sigma of x, ..., x^(d-1) mod p^2, d = len(f);
    ArithmeticError when the product w is not 1 mod p."""
    m = p * p
    w = (mul2 if len(f) == 2 else mul3)(up, ring_apply(inv, images, m), f, m)
    w = (w[0] - 1, *w[1:])
    if any(c % p for c in w):
        raise ArithmeticError(f"eps^p * sigma(eps^-1) is not 1 mod {p}: "
                              "impossible at an unramified prime, this indicates corrupt inputs")
    return tuple(c // p for c in w)


# -- lane arithmetic: one numpy lane per modulus -------------------------------

MULMOD_PMAX = 1 << 25  # moduli below it multiply in plain int64; p^2 < 2^50 for primes below it
TABLE_MAX = 1 << 16  # entries of the largest character table; past it legendre takes Lanes.pow


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


def legendre(a, p):
    """(a/p) in {-1, 0, 1} lane by lane for an int a and odd primes p, read off p mod 4|a|
    (quadratic reciprocity) in a table cached per a; past TABLE_MAX by Euler's criterion,
    a^((p-1)/2) in {0, 1, p - 1}, shifted to {0, 1, -1} by (s + 1) % p - 1."""
    if 0 < 4 * abs(a) <= TABLE_MAX:
        return _characters(a)[p % (4 * abs(a))]
    return ((Lanes(p).pow((a,), (p - 1) >> 1)[0] + 1) % p - 1).astype(np.int8)


def pow_lanes(e, w, lead, first, square, times):
    """Left-to-right powering lane by lane over the w-bit digits of e >= 0: r = first(e >> top),
    base^(e >> top), at the least multiple top of w with e.max() >> top < lead (lead >= 1), then
    each later digit d squares r w times and applies times(r, d), the product by base^d;
    r stays in [0, m), or in (-m, m) for Lanes.pow to reduce once at the end."""
    digit = lambda shift: ((e >> shift) & ((1 << w) - 1)).astype(np.intp)
    top = -(-(int(e.max(initial=0)) // lead).bit_length() // w) * w  # e.max() < lead * 2^top
    r = first((e >> top).astype(np.intp))
    for shift in range(top - w, -1, -w):
        for _ in range(w):
            r = square(r)
        r = times(r, digit(shift))
    return r


def _sum(pairs, extra=None):
    """The sum of a*b over the pairs, plus extra unless it is None."""
    return reduce(add, [a * b for a, b in pairs] + ([] if extra is None else [extra]))


@lru_cache(maxsize=None)
def _powers(a, f):
    """The exact powers a^0, a^1, ... of the d-tuple of ints a in Z[x]/(f) while every coefficient
    c has |c| < 2^63, at most 64 (a 6-bit digit), as int64 rows: Lanes.table's and Lanes.pow's."""
    ring, powers = Lanes(np.zeros(0, np.int64), f), [(1,) + (0,) * (len(a) - 1)]
    while len(powers) < 64 and max(map(abs, x := ring.mul(powers[-1], a, _sum))) < 1 << 63:
        powers.append(x)
    return np.array(powers, np.int64)


class Lanes:
    """(Z/m)[x]/(f) lane by lane, for an int64 array m of moduli (every m below
    2^50, or squares q^2 below 2^60) and the non-leading coefficients f of a
    monic f of degree d = len(f) <= 64, or f = () for Z/m (d = 1).  Products act on
    d-tuples of residue arrays in [0, m) by one plan and fold by fold_rows(f), the bounds of
    every path in d: x^k sums at most d pairs a_i*b_j, i + j = k, and x^k below x^d folds in at
    most d - 1 high sums x^d, ..., x^(2d-2), by weights adding up to at most F (fold_weight)."""

    # 1/m below 2^50, built where read: dot on the float path, _near
    minv = cached_property(lambda self: 1.0 / self.m if self.q is None else None)

    def __init__(self, m, f=()):
        self.m, self.d, self.f, self.rows = m, max(len(f), 1), tuple(f), fold_rows(f)
        top = int(m.max(initial=0))
        self.exact = top < MULMOD_PMAX  # plain int64 products in dot
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
        # F, the largest column sum of |rows| (0 for none): a fold term is at most F times its largest high sum
        self.fold_weight = F = max((sum(map(abs, column)) for column in zip(*self.rows)), default=0)
        self.lane_folds = ([[(j, self._split(residues(c, m))) for j, c in fold] for fold in self.folds]
                           if self.q is not None or F >= 1 << 12 else None)
        # pow on balanced residues: mulmod in Z/m, _square in rings below 2^40 within its bound
        self.balanced = self.q is None and (d == 1 or top < 1 << 40 and F < 64
                                            and (2 * d + 2) * (d + (d - 1) * F) <= 1 << 12)

    def dot(self, pairs, extra=None):
        """(s = sum of a*b over the pairs + extra) mod m, for n <= 64 pairs of a in [0, m) and b in [0, 2m)
        (b = 2a' in a square), or (-m, m) and (-2m, 2m) off the digit path (pow's balanced residues, in
        rings from 2^40 or F >= 64), so that P, the sum of |a*b|, is below 2n m^2, and |extra| < 2^62
        (no extra term when None): any ring product.

        While every modulus is below MULMOD_PMAX, |s| < 2n * 2^50 + 2^62 < 2^63 is exact in
        int64, also for pow's a below 2^14 that may pass m (Lanes.pow).  Below 2^50 this is the
        float-quotient MulMod of Shoup's NTL: q is s/m computed in float64 and truncated.  A term
        takes at most n + 3 roundings of 2^-53 (a product or the extra's conversion, n additions,
        minv and est * minv), which put q within (n + 3) * 2^-53 * (P + 2^62)/m + 1 of s/m, so
        r = s - q*m has |r| < m + (n + 3) * 2^-53 * (2n m^2 + 2^62) < 2^61.  Wrapping int64
        arithmetic gets s and q*m right modulo 2^64, hence r exactly, and r % m is the residue.

        On squares m = q^2 < 2^60 the operands split into base-q digits, a = a0 + q*a1,
        and a*b = a0*b0 + q*(a0*b1 + a1*b0) mod m, for any n: a pair's low term is below
        q^2 and its middle term below 3q^2.  Three low terms and extra stay below 3q^2 + 2^62,
        so a fourth and later are added to the low sum's residue mod m; two middle terms
        stay below 6q^2 < 2^63, so a third and later are added to the middle sum's residue
        mod q; and low + q*(middle mod q) < 2^62 + 4q^2 < 2^63."""
        return self._dot([(self._split(a), self._split(b)) for a, b in pairs], extra)

    def _split(self, x):  # x as its base-q digits (x // q, x % q) on the digit path
        return x if self.q is None else np.divmod(x, self.q)

    def _dot(self, pairs, extra=None):
        """dot on operands already split by _split, each split once per product."""
        if self.q is not None:
            q = self.q
            low, mid = 0 if extra is None else extra, 0
            for i, ((a1, a0), (b1, b0)) in enumerate(pairs):
                low = (low % self.m if i > 2 else low) + a0 * b0
                mid = (mid % q if i > 1 else mid) + a0 * b1 + a1 * b0
            return (low + q * (mid % q)) % self.m
        s = _sum(pairs, extra)
        if not self.exact:
            est = _sum([(a.astype(np.float64), b) for a, b in pairs], extra)
            s = s - (est * self.minv).astype(np.int64) * self.m
        return s % self.m

    def _product(self, operands, plan, reduction=None):
        """The sums of the plan, x^d, ..., x^(2d-2) first, folded back as the
        extra of the rest: by reduction(pairs, extra) and the exact fold rows, or
        by dot when reduction is None, through dot pairs of the per-lane fold
        entries where lane_folds holds them (the digit path, or F >= 2^12: a fold of reduced
        highs, up to F * (m - 1), would pass the 2^62 extra term of dot for m below 2^50).
        A digit product by table, first operand |r| < m, stays exact in int64 by its rule, also with
        pow's float-quotient highs (Lanes.pow), and a mul within the bounds of dot."""
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
        """x*y mod m, written over x, for m below 2^50: r = x*y - q*m for q = rint(fl(x) * fl(y) * minv),
        exact in wrapping int64 since |r| < 2^63.  Three roundings of 2^-53 put the estimate within
        |x*y/m| * 3 * 2^-53 of x*y/m.  For |x|, |y| < m < 2^50 that is below 0.375, so q is off by at
        most 0.875 and |r| < 0.875 m.  For y an entry of table, |x*y| < m*|y| and |y| < 2^63 / max m by
        its width rule, and fl(y) may be a fourth rounding: q is off by at most 0.5 + 2^12.01 / max m,
        so |r| < m from max m = 2^14 ((0.5 + 2^-13) m from 2^25, where |y| < 2^38 is exact), and below it
        |r| < m/2 + 2^12.01 < 2^14, which the next square (x*x < 2^28: q off by at most 0.5 + 2^-23) takes
        back into (-m, m)."""
        est = x.astype(np.float64)  # two temporaries, the rest in place: fresh arrays page-fault
        est *= est if y is x else y
        return self._near(np.multiply(x, y, out=x), est)

    def _near(self, s, est):  # s - rint(est * minv) * m, in place on the int64 s and its float64 estimate
        est *= self.minv
        q = np.rint(est, out=est).astype(np.int64)
        q *= self.m
        return np.subtract(s, q, out=s)

    def table(self, a):
        """The exact powers a^0, ..., a^(2^w - 1) of the d-tuple of ints a for the
        widest w <= 3 keeping each digit product r * a^k, |r| < m, in int64:
        (sum of |a^k| + F) * max m < 2^63, F the fold weight (0 for d = 1),
        since in any degree a coefficient of r * a^k is at most (m - 1) times the sum of
        |a^k| from its pairs (each entry of a^k once) plus (m - 1) * F from the reduced
        high terms |h| < m folded back (pow bounds those that pass m).  None when a^1 misses."""
        powers, top = _powers(a, self.f)[:8].tolist(), int(self.m.max(initial=1))
        fits = lambda t: (sum(map(abs, t)) + self.fold_weight) * top < 1 << 63
        for w in (3, 2, 1):
            if len(powers) >> w and all(map(fits, powers[: 1 << w])):
                return list(map(tuple, powers[: 1 << w]))
        return None

    def pow(self, a, e):
        """a^e lane by lane for a d-tuple a and e >= 0 by pow_lanes.  Ints are one exact constant: its
        leading value e >> top < n gathers a^(e >> top) from the n <= 64 exact powers whose every
        coefficient is below 2^63 (_powers), reduced by one int64 %.  Each later digit multiplies by
        table(a), gathered from d columns, with one exact product and reduction per coefficient;
        residues per lane, and ints with no table (as residues), take w = 1 and mul.  Below 2^50 digit
        products, and squares where balanced, run on residues in (-m, m) with no %, and one % per
        coefficient ends the power: squares by mulmod in Z/m (digit products too) and _square in rings,
        else by dot.  A ring digit product reduces each sum s, the highs before they fold back, to
        r = s - rint(fl(s) * minv) * m (_near).  With |r| < m and highs |h| < m, |s| <= (A + F) m < 2^63
        for A the sum of |a^k| (table), and 3 roundings put q within 1/2 + 3.01 * 2^-53 |s| / m of s/m:
        |r| < m/2 + 3.01 * 2^10 m / max m, below 0.69 m from max m = 2^14 and below m/2 + 3.01 * 2^10 <
        2^14 under it, which the next square takes back into (-m, m) (_square, dot).  A high passes m
        only where 3.01 * 2^-53 A >= 1/2, so below max m = 6.02 * 2^10, and there F < 2^38 (else the
        products keep %) keeps |s| <= (m - 1) A + F (m/2 + 3.01 * 2^-53 m A) < (A + F) m."""
        m = self.m
        table = None if any(map(np.ndim, a)) else self.table(a := tuple(map(int, a)))
        reduction = (lambda pairs, extra=None: self.mulmod(*pairs[0])) if self.d == 1 and self.balanced else None
        square = self._square if self.d > 1 and self.balanced else lambda r: self.square(r, reduction)
        if table is None:
            a = tuple(residues(c, m) for c in a)
            w, n, first = 1, 2, lambda d: tuple(np.where(d == 1, c, o) for c, o in zip(a, self.one))
            operand, exact = first, reduction
        else:
            leading = _powers(a, self.f)
            cols, lead = (np.array(t, np.int64).T for t in (table, leading))
            w, n, operand = len(table).bit_length() - 1, len(leading), lambda d: tuple(c[d] for c in cols)
            first = lambda d: tuple(c[d] % m for c in lead)
            near = self.q is None and self.fold_weight < 1 << 38
            exact = reduction or (lambda pairs, extra=None: self._near(s := _sum(pairs, extra), s.astype(np.float64))
                                  if near else _sum(pairs, extra) % m)
        times = lambda r, d: self._product((*r, *operand(d)), self.mul_plan, exact)
        r = pow_lanes(e, w, n, first, square, times)
        return r if self.q is not None else tuple(c % m for c in r)

    def _square(self, a):
        """square(a) for pow in a balanced ring, |a_i| < m: each x^k by the wrapping int64 sum s
        of its pairs (of a and 2a) and the float64 sum est of the same pairs (a in float64 once),
        x^d, ..., x^(2d-2) folded back unreduced, and r = s - rint(est * minv) * m by _near.
        A leaf takes a product, a fold factor and at most 2d - 3 additions (a high sum has at most
        d/2 pairs, a low one (d + 1)/2, and d - 1 folds), so |est - s| <= (2d - 1) * 2^-53 * S for S
        the sum of |leaves|, below (d + (d - 1)F) m^2, and with est * minv 2 roundings more, |r| < m/2
        + (2d + 1.01)(d + (d - 1)F) * 2^-13 m below m = 2^40, exact in wrapping int64: below 0.62 m for
        d <= 3 and F < 64, and below m while (2d + 2)(d + (d - 1)F) <= 2^12, for every F < 64 to d = 5
        (F = 1 to d = 31), and for F <= 57 at d = 6, F <= 41 at 7, 19 at 10 and 11 at 13.  Below max
        m = 2^14 pow's |a_i| < 2^14 (Lanes.pow) give S < 2^38: est = s is exact and |r| <= m/2."""
        sets = [(*x, *(c + c for c in x[1:])) for x in (a, [c.astype(np.float64) for c in a])]
        def sums(ij, fold=()):  # the pair and fold terms of x^k, summed in int64 and in float64
            return [reduce(iadd, [h[n] if c == 1 else h[n] * c for h, c in fold], _sum([(o[i], o[j]) for i, j in ij]))
                    for n, o in enumerate(sets)]
        high = [sums(ij) for ij in self.square_plan[self.d:]]
        return tuple(self._near(*sums(ij, [(high[j], c) for j, c in fold]))
                     for ij, fold in zip(self.square_plan, self.folds))

    def apply(self, a, images):
        """a0 + a1 x + ... -> a0 + a1 s1 + ..., for the images s1, ... of x, ..., x^(d-1)."""
        return tuple(self.dot([(c, s[k]) for c, s in zip(a[1:], images)], None if k else a[0])
                     for k in range(self.d))


def fold_rows(f) -> list[tuple[int, ...]]:
    """x^d, ..., x^(2d-2) mod the monic f of degree d = len(f), as exact rows (none for f = ())."""
    rows = [tuple(-c for c in f)] if f else []
    while len(rows) < len(f) - 1:
        rows.append(tuple(lo - rows[-1][-1] * c for lo, c in zip((0,) + rows[-1][:-1], f)))
    return rows
