"""Exact arithmetic in quotient rings O/p^k O of monogenic orders O = Z[theta].

The order is described by the monic integer polynomial f that theta
satisfies (degree 2 or 3).  Ring elements are coefficient vectors on the
power basis 1, theta, theta^2, with entries reduced into [0, m) for
m = p^k.  Reduction by f is hard-coded per degree (closed forms for x^2,
x^3, x^4), which keeps the power maps used by the scanners cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

__all__ = [
    "OrderSpec",
    "poly_discriminant",
    "mul2",
    "mul3",
    "pow2",
    "pow3",
    "Lanes",
    "prime_lanes",
    "pow_lanes",
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
    """A monogenic order Z[theta], theta a root of the stored monic polynomial."""

    degree: int
    defining_poly: tuple[int, ...]  # ascending, length degree+1, leading 1
    discriminant: int

    def __post_init__(self):
        if self.degree not in (2, 3):
            raise ValueError("degree must be 2 or 3")
        if len(self.defining_poly) != self.degree + 1 or self.defining_poly[-1] != 1:
            raise ValueError("defining polynomial must be monic of the stated degree")
        if poly_discriminant(self.defining_poly) != self.discriminant:
            raise ValueError(
                f"stored discriminant {self.discriminant} does not match the polynomial"
            )

    @classmethod
    def from_poly(cls, poly) -> "OrderSpec":
        poly = tuple(int(c) for c in poly)
        return cls(len(poly) - 1, poly, poly_discriminant(poly))

    @property
    def reduction(self) -> tuple[int, ...]:
        """Non-leading coefficients (f0, f1[, f2]), as consumed by the mul/pow kernels."""
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


def pow2(a, e, f, m):
    """a^e in (Z/m)[x]/(x^2 + f1 x + f0) by binary exponentiation; e >= 0."""
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    f0, f1 = f
    r0, r1 = 1 % m, 0
    b0, b1 = a[0] % m, a[1] % m
    while e:
        if e & 1:
            t = r1 * b1
            r0, r1 = (r0 * b0 - f0 * t) % m, (r0 * b1 + r1 * b0 - f1 * t) % m
        e >>= 1
        if e:
            t = b1 * b1
            b0, b1 = (b0 * b0 - f0 * t) % m, (2 * b0 * b1 - f1 * t) % m
    return r0, r1


def pow3(a, e, f, m):
    """Binary exponentiation in (Z/m)[x]/(f); exponents e >= 0 of any size."""
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    f0, f1, f2 = f
    t2 = f2 * f2 - f1
    t1 = f2 * f1 - f0
    t0 = f2 * f0
    r0, r1, r2 = 1 % m, 0, 0
    b0, b1, b2 = a[0] % m, a[1] % m, a[2] % m
    while e:
        if e & 1:
            c0 = r0 * b0
            c1 = r0 * b1 + r1 * b0
            c2 = r0 * b2 + r1 * b1 + r2 * b0
            c3 = r1 * b2 + r2 * b1
            c4 = r2 * b2
            r0 = (c0 - c3 * f0 + c4 * t0) % m
            r1 = (c1 - c3 * f1 + c4 * t1) % m
            r2 = (c2 - c3 * f2 + c4 * t2) % m
        e >>= 1
        if e:
            c0 = b0 * b0
            c1 = 2 * b0 * b1
            c2 = 2 * b0 * b2 + b1 * b1
            c3 = 2 * b1 * b2
            c4 = b2 * b2
            b0 = (c0 - c3 * f0 + c4 * t0) % m
            b1 = (c1 - c3 * f1 + c4 * t1) % m
            b2 = (c2 - c3 * f2 + c4 * t2) % m
    return r0, r1, r2


# -- lane arithmetic: one numpy lane per modulus -------------------------------

MULMOD_PMAX = 1 << 25  # moduli below it multiply in plain int64; p^2 < 2^50 for primes below it

_pow_objects = np.frompyfunc(pow, 3, 1)


def prime_lanes(primes, fits_int64=True):
    """The int64 primes as one lane array: int64 when every prime is below
    MULMOD_PMAX and fits_int64 (the caller's other inputs fit int64), else
    Python ints (dtype object), which are exact at any size."""
    lanes = np.asarray(primes, dtype=np.int64)
    small = fits_int64 and lanes.max(initial=0) < MULMOD_PMAX
    return lanes if small else lanes.astype(object)


def pow_lanes(r, e, square, times):
    """Binary powering lane by lane, from r = one and left to right over the
    bits of e >= 0: a set bit applies times to r, and each bit but the last
    squares it.  r is an array or a triple that np.where stacks into one."""
    for k in reversed(range(int(e.max(initial=0)).bit_length())):
        r = np.where((e >> k) & 1 == 1, times(r), r)
        if k:
            r = square(r)
    return r


class Lanes:
    """Z/m lane by lane, for an array m of moduli: int64 below 2^50, or
    Python ints (dtype object) of any size."""

    def __init__(self, m):
        self.m = m
        wide = m.dtype == np.int64 and m.max(initial=0) >= MULMOD_PMAX
        self.minv = 1.0 / m if wide else None

    def dot(self, pairs, extra=None):
        """(s = sum of a*b over the pairs + extra) mod m, for a, b in [0, m),
        one to three pairs and, on int64 lanes, |extra| < 2^62 (no extra term
        when None).

        Python-int lanes compute s exactly.  While every int64 modulus is
        below MULMOD_PMAX, s < 2^62 + 3 * 2^50 is exact in int64.  Otherwise
        this is the float-quotient MulMod of Shoup's NTL: q is s/m computed
        in float64 and truncated.  Its terms add up to at most 3m^2 + 2^62,
        and at most eight roundings of 2^-53 each put q within
        8 * 2^-53 * (3m + 2^62/m) + 1 of s/m, so r = s - q*m has
        |r| < 2m + 8 * 2^-53 * (3m^2 + 2^62) < 2^53.  Wrapping int64
        arithmetic gets s and q*m right modulo 2^64, hence r exactly, and
        r % m is the residue."""
        extras = [] if extra is None else [extra]
        s = reduce(add, [a * b for a, b in pairs] + extras)
        if self.minv is not None:
            est = reduce(add, [a.astype(np.float64) * b for a, b in pairs] + extras)
            s = s - (est * self.minv).astype(np.int64) * self.m
        return s % self.m

    def pow(self, a, e):
        """a^e lane by lane for e >= 0; Python-int lanes use the builtin pow."""
        if self.m.dtype == object:
            return _pow_objects(a, e, self.m)
        return pow_lanes(
            np.ones_like(self.m), e, lambda r: self.dot(((r, r),)), lambda r: self.dot(((r, a),))
        )
