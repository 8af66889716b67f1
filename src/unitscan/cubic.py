"""Scanner for complex cubic fields: hypothesis filters, fundamental units,
the z-invariant, and the refined ordinarity test.

A record describes K = Q(theta) for a monic cubic f with negative field
discriminant Delta (so Z[theta] is the maximal order and the unit rank
is 1).  For an inert prime p that passes the hypothesis filter, the residue
ring O/p is the field with p^3 elements, and the fundamental unit eps
satisfies eps^(p^3-1) = 1 + z*p mod p^2 for a unique z in O/p.  The
invariant z decides the two tests: degree-two cohomology vanishes iff
z != 0, and for p = 1 mod 3 the ordinary subspace is nonzero iff
z^(3(p-1)) = 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import log

import numpy as np

from ._data import DataFileError, data_path, read_table_rows
from ._parallel import run_chunked
# pow3 is poly_pow, called through this module global: the benchmark traces that name
from .order_arith import (Lanes, OrderSpec, frobenius_quotient, inverse, legendre, mul3,
                          poly_pow as pow3, residues, ring_apply)
from .primes import PrimeRange, prime_divisors, primes_in, require_prime  # the benchmark traces primes_in
from .report import (CLEAR, CLEAR_CODE, CODES, EXCLUDED, HIT, HIT_CODE, Block, ScanReport,
                     Verdict, assemble_report)

__all__ = [
    "MODE_H2",
    "MODE_ORDINARY",
    "CubicFieldRecord",
    "ZValue",
    "h5_set",
    "h5_reduced",
    "hyp_filter",
    "element_norm",
    "invert_unit",
    "real_root",
    "find_fundamental_unit",
    "z_value",
    "h2_vanishing_test",
    "ordinary_test",
    "classify_cubic_prime",
    "scan_cubic",
    "load_cubic_fields",
]

MODE_H2 = "h2"
MODE_ORDINARY = "ordinary"

# Artin: a complex cubic field with fundamental unit u > 1 has |disc| < 4u^3 + 24,
# so a found unit u with 4u^(3/2) + 24 <= |disc| cannot be a proper power.
_ARTIN_SLACK = 1e-9


@lru_cache(maxsize=None)
def h5_set(ramified: frozenset[int]) -> frozenset[int]:
    """Primes dividing l^2 - 1 for some ramified l (the small-prime exclusion set)."""
    if not ramified:
        raise ValueError("ramified set must be nonempty")
    out = set()
    for l in ramified:
        out |= prime_divisors(l * l - 1)
    return frozenset(out)


def h5_reduced(ramified: frozenset[int]) -> frozenset[int]:
    return h5_set(ramified) - {2, 3}


# -- exact arithmetic on unit triples ------------------------------------------

def _adjugate(g, f):
    """First column of the adjugate of g's multiplication matrix, and its
    determinant (the norm of g), exact: g * (c0 + c1 x + c2 x^2) = det."""
    f0, f1, f2 = f
    gx = (-f0 * g[2], g[0] - f1 * g[2], g[1] - f2 * g[2])
    gxx = (-f0 * gx[2], gx[0] - f1 * gx[2], gx[1] - f2 * gx[2])
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = g, gx, gxx
    c0 = m11 * m22 - m12 * m21
    c1 = m12 * m20 - m10 * m22
    c2 = m10 * m21 - m11 * m20
    return (c0, c1, c2), m00 * c0 + m01 * c1 + m02 * c2


def element_norm(spec: OrderSpec, g) -> int:
    """Field norm of a + b*theta + c*theta^2 as the determinant of its
    multiplication matrix (equals the resultant of f and the triple)."""
    return _adjugate(g, spec.reduction)[1]


def invert_unit(spec: OrderSpec, g) -> tuple[int, int, int]:
    """Inverse of a unit triple, exact (the multiplication matrix has det +-1)."""
    adj, det = _adjugate(g, spec.reduction)
    if det not in (1, -1):
        raise ValueError("not a unit")
    return (adj[0] * det, adj[1] * det, adj[2] * det)


def _inverse_mod(g, f, m: int) -> tuple[int, int, int]:
    """Inverse of g in (Z/m)[x]/(f) from the adjugate; ArithmeticError when
    the norm of g is not a unit mod m."""
    adj, det = _adjugate(g, f)
    try:
        d = pow(det, -1, m)
    except ValueError:
        raise ArithmeticError(f"element is not invertible mod {m}") from None
    return (adj[0] * d % m, adj[1] * d % m, adj[2] * d % m)


def real_root(spec: OrderSpec) -> float:
    """The unique real root of f (disc < 0): numpy's root of least imaginary part."""
    roots = np.roots(spec.defining_poly[::-1])
    return float(roots[np.argmin(abs(roots.imag))].real)


def _embed(triple, root: float) -> float:
    a, b, c = triple
    return a + b * root + c * root * root


def _normalize_unit(spec: OrderSpec, triple, root: float):
    """Representative with real embedding > 1 (negate and/or invert)."""
    v = _embed(triple, root)
    if v < 0:
        triple = (-triple[0], -triple[1], -triple[2])
        v = -v
    if v < 1:
        triple = invert_unit(spec, triple)
        v = _embed(triple, root)
    if v <= 1:
        raise ArithmeticError("unit normalization failed")
    return triple, v


def _unit_candidates(spec: OrderSpec, bound: int, root: float):
    best = None
    for t in product(range(-bound, bound + 1), repeat=3):
        if t[1:] != (0, 0) and element_norm(spec, t) in (1, -1):  # rational integers: only the torsion +-1
            lg = abs(log(abs(_embed(t, root))))
            if lg > 1e-12 and (best is None or lg < best[0] - 1e-12):
                best = (lg, t)
    return best


def find_fundamental_unit(spec: OrderSpec, coeff_bound: int = 10):
    """Fundamental unit of Z[theta] by box search, with a certificate.

    Enumerates triples with entries up to coeff_bound, keeps those of norm
    +-1, and takes the one of smallest nonzero |log| in the real embedding,
    normalized to value > 1.  Certificate is "artin" when the Artin
    inequality rules out any proper-power decomposition, otherwise
    "exhaustive" after re-checking minimality over an enlarged box.
    Returns (triple, certificate).
    """
    if spec.degree != 3 or spec.discriminant >= 0:
        raise ValueError("needs a cubic order of negative discriminant (unit rank 1)")
    root = real_root(spec)
    absd = -spec.discriminant
    for bound in (coeff_bound, max(coeff_bound + 5, (3 * coeff_bound) // 2)):
        best = _unit_candidates(spec, bound, root)
        if best is None:
            raise ValueError(f"no unit with coefficients up to {bound}; retry with a larger bound")
        triple, val = _normalize_unit(spec, best[1], root)
        if absd > 28 and 4 * val**1.5 + 24 <= absd - _ARTIN_SLACK:
            return triple, "artin"
    return triple, "exhaustive"


# -- field records --------------------------------------------------------------

@dataclass(frozen=True)
class CubicFieldRecord:
    """K = Q(theta) for the order spec of field discriminant delta, with h_E
    (None when unknown) and a fundamental unit (by default the one
    find_fundamental_unit gives, with its certificate)."""

    delta: int
    spec: OrderSpec
    class_number_e: int | None = None
    unit: tuple[int, int, int] | None = None
    unit_certificate: str = "shipped"
    ramified: frozenset[int] = field(init=False, repr=False, compare=False)
    unit_inverse: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.delta >= 0:
            raise ValueError("field discriminant must be negative")
        if self.spec.discriminant != self.delta:
            raise ValueError("disc(f) must equal the field discriminant")
        if self.class_number_e is not None and self.class_number_e < 1:
            raise ValueError("class number must be positive")
        if self.unit is None:
            unit, certificate = find_fundamental_unit(self.spec)
            object.__setattr__(self, "unit", unit)
            object.__setattr__(self, "unit_certificate", certificate)
        a, b, c = self.unit
        if b == 0 and c == 0:
            raise ValueError("unit must not be rational (+-1)")
        if element_norm(self.spec, self.unit) not in (1, -1):
            raise ValueError("unit norm is not +-1")
        object.__setattr__(self, "ramified", prime_divisors(self.delta))
        object.__setattr__(self, "unit_inverse", invert_unit(self.spec, self.unit))


def load_cubic_fields(data_dir=None) -> dict[int, CubicFieldRecord]:
    """Field data file rows: delta c2 c1 c0 S h_E u0 u1 u2 certificate.

    S is the comma-separated ramified set and must equal the prime divisors
    of delta.  h_E is '?' when the class number of the Galois closure is not
    bundled; scans then skip that exclusion and attach a warning.
    """
    records = {}
    for row in read_table_rows(data_path("cubic_fields.txt", data_dir)):
        try:
            if len(row) != 10:
                raise ValueError("expected 'delta c2 c1 c0 S h_E u0 u1 u2 cert'")
            delta = int(row[0])
            if delta in records:
                raise ValueError(f"duplicate delta={delta}")
            spec = OrderSpec((int(row[3]), int(row[2]), int(row[1]), 1))
            h_e = None if row[5] == "?" else int(row[5])
            unit = (int(row[6]), int(row[7]), int(row[8]))
            rec = CubicFieldRecord(delta, spec, h_e, unit, row[9])
            if frozenset(int(l) for l in row[4].split(",")) != rec.ramified:
                raise ValueError("S does not equal the prime divisors of delta")
            records[delta] = rec
        except (ValueError, IndexError) as exc:
            raise DataFileError(f"bad cubic field row {row}: {exc}") from exc
    if not records:
        raise DataFileError("no cubic field records found")
    return records


# -- hypotheses and the z-invariant ---------------------------------------------

def hyp_filter(rec: CubicFieldRecord, p: int) -> str | None:
    """None when the prime p passes the hypotheses, else the first failure in
    their order: p coprime to 6, unramified, coprime to the closure class
    number, (odd, implied by the first,) outside the small exclusion set."""
    if p in (2, 3):
        return "hyp1_divides_6"
    if rec.delta % p == 0:
        return "hyp2_ramified"
    if rec.class_number_e is not None and rec.class_number_e % p == 0:
        return "hyp3_class_number"
    if p in h5_set(rec.ramified):
        return "hyp5_in_H5"
    return None


@dataclass(frozen=True)
class ZValue:
    """z in O/p (three residues), defined by eps^(p^3-1) = 1 + z*p mod p^2."""

    p: int
    coeffs: tuple[int, int, int]

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0, 0, 0)


def _z_coeffs(unit, f, p: int, xp=None, inv=None) -> tuple[int, int, int]:
    """z with eps^(p^3-1) = 1 + z*p mod p^2, at an inert prime p, for any
    representative of eps mod p^2; xp is theta^p mod (f, p) and inv is a
    representative of eps^-1 mod p^2, each when known.
    ArithmeticError when p is not inert or the inputs are inconsistent.

    O/p^2 is the Galois ring GR(p^2, 3), with Frobenius sigma.  Writing
    eps = omega*(1 + p*y) with omega the Teichmueller lift gives z = -y, and one
    power by p yields the Frobenius quotient t = -sigma(y) = sigma(z) (order_arith),
    so z = sigma^2(t) because sigma^3 = 1 on O/p.
    """
    m = p * p
    if xp is None:
        xp = pow3((0, 1, 0), p, f, p)
    # sigma(theta) mod p^2: one Newton step s - f(s)/f'(s) from s = theta^p.
    t2 = mul3(xp, xp, f, m)  # f(s) is s^3 plus f0 + f1 x + f2 x^2 at x = s
    ft = [(c + s) % m for c, s in zip(mul3(t2, xp, f, m), ring_apply(f, (xp, t2), m))]
    if any(c % p for c in ft):
        raise ArithmeticError(f"theta^p is not a root of f mod {p}: corrupt inputs")
    images = (xp, tuple(c % p for c in t2))  # sigma(theta), sigma(theta^2) mod p
    if xp == (0, 1, 0) or ring_apply(xp, images, p) == (0, 1, 0):
        raise ArithmeticError(f"p={p} is not inert: theta^p or theta^(p^2) is theta")
    dt = ring_apply((f[1], 2 * f[2], 3), images, p)  # f'(theta^p)
    step = mul3([c // p for c in ft], _inverse_mod(dt, f, p), f, p)
    s1 = ((xp[0] - p * step[0]) % m, (xp[1] - p * step[1]) % m, (xp[2] - p * step[2]) % m)
    if inv is None:
        inv = _inverse_mod(unit, f, m)
    t = frobenius_quotient(pow3(unit, p, f, m), inv, (s1, mul3(s1, s1, f, m)), f, p)
    return ring_apply(ring_apply(t, images, p), images, p)


def _z_cubed_in_fp(z, fp, p: int) -> bool:
    """z^(3(p-1)) = 1 in F_(p^3) for nonzero z: x^(p-1) = 1 exactly when x
    lies in F_p*, so the test is that z^3 has no theta or theta^2 part."""
    c = mul3(mul3(z, z, fp, p), z, fp, p)
    return c[1] == 0 and c[2] == 0


def _inert_xp(delta: int, fp, p: int):
    """theta^p mod (f, p) when p is inert (Frobenius order 3), else None, for
    p passing the hypothesis filter and fp = f mod p.  A quadratic residue
    discriminant rules out order 2, then theta^p != theta rules out order 1."""
    if pow(delta % p, (p - 1) >> 1, p) != 1:
        return None
    xp = pow3((0, 1, 0), p, fp, p)
    return None if xp == (0, 1, 0) else xp


def z_value(rec: CubicFieldRecord, p: int) -> ZValue:
    """The invariant z at an inert prime passing the hypothesis filter."""
    require_prime(p)
    reason = hyp_filter(rec, p)
    if reason is not None:
        raise ValueError(f"p={p} rejected by the hypothesis filter ({reason})")
    f = rec.spec.reduction
    xp = _inert_xp(rec.delta, (f[0] % p, f[1] % p, f[2] % p), p)
    if xp is None:
        raise ValueError(f"p={p} is not inert (Frobenius order is not 3)")
    return ZValue(p, _z_coeffs(rec.unit, f, p, xp, rec.unit_inverse))


def h2_vanishing_test(rec: CubicFieldRecord, p: int) -> bool:
    """True (the obstruction space vanishes) exactly when z != 0."""
    return not z_value(rec, p).is_zero


def ordinary_test(rec: CubicFieldRecord, p: int) -> bool:
    """True iff z^(3(p-1)) = 1 in O/p; needs p = 1 mod 3 and z != 0."""
    if p % 3 != 1:
        raise ValueError(f"p={p} is not 1 mod 3; the ordinary test is not defined over F_p")
    z = z_value(rec, p)
    if z.is_zero:
        raise ValueError(f"z = 0 at p={p}; the ordinary test needs z != 0")
    f = rec.spec.reduction
    return _z_cubed_in_fp(z.coeffs, (f[0] % p, f[1] % p, f[2] % p), p)


def classify_cubic_prime(rec: CubicFieldRecord, p: int, mode: str) -> Verdict:
    """Per-prime verdict, the readable reference of the batch kernel; p must be
    prime and is not checked (it runs over sieve output: is_prime costs half a call)."""
    if mode not in (MODE_H2, MODE_ORDINARY):
        raise ValueError(f"unknown mode {mode!r}")
    reason = hyp_filter(rec, p)
    if reason is not None:
        return Verdict(p, EXCLUDED, reason=reason)
    if mode == MODE_ORDINARY and p % 3 == 2:
        return Verdict(p, EXCLUDED, reason="p_2_mod_3")
    f = rec.spec.reduction
    fp = (f[0] % p, f[1] % p, f[2] % p)
    xp = _inert_xp(rec.delta, fp, p)
    if xp is None:
        return Verdict(p, EXCLUDED, reason="frob_order_not_3")
    z = _z_coeffs(rec.unit, f, p, xp, rec.unit_inverse)
    if z == (0, 0, 0):
        return Verdict(p, HIT, aux=z) if mode == MODE_H2 else Verdict(p, EXCLUDED, reason="z_zero")
    if mode == MODE_ORDINARY and _z_cubed_in_fp(z, fp, p):
        return Verdict(p, HIT, aux=z)
    return Verdict(p, CLEAR)


# -- batched scan kernel ---------------------------------------------------------
#
# A scan chunk classifies its primes together, one int64 lane per prime, with
# the tests of classify_cubic_prime in the same order, on the lane ring order_arith.Lanes(m, f),
# z coming from the Frobenius quotient as in _z_coeffs.  The unit, its inverse, h_E, f and the
# adjugate of f'(theta) enter as residues or digit tables, (Delta/p) and 1/N(f'(theta)) by per-field tables.


def _equals(a, c):
    """Lanes where the triple a equals the constant triple c."""
    return (a[0] == c[0]) & (a[1] == c[1]) & (a[2] == c[2])


def _z_lanes(unit, inv, f, p, xp):
    """_z_coeffs lane by lane, with the same guards: z at the primes p where
    theta^p mod (f, p) is xp, for the exact unit and its exact inverse: one power, eps^p
    mod p^2; 1/det mod p for det = N(f'(theta)) = -Delta comes from a table (inverse)."""
    m = p * p
    rp = Lanes(p, f)
    rm = Lanes(m, f)
    # sigma(theta) mod p^2: one Newton step s - f(s)/f'(s) from s = theta^p.
    t2 = rm.square(xp)  # f(s) is s^3 plus f0 + f1 x + f2 x^2 at x = s
    rest = rm.apply(tuple(residues(c, m) for c in f), (xp, t2))
    ft = [(c + s) % m for c, s in zip(rm.mul(t2, xp), rest)]
    bad = ~_equals([c % p for c in ft], (0, 0, 0))
    if bad.any():
        raise ArithmeticError(f"theta^p is not a root of f mod {p[bad][0]}: corrupt inputs")
    images = (xp, tuple(c % p for c in t2))  # sigma(theta), sigma(theta^2) mod p
    bad = _equals(xp, (0, 1, 0)) | _equals(rp.apply(xp, images), (0, 1, 0))
    if bad.any():
        raise ArithmeticError(f"p={p[bad][0]} is not inert: theta^p or theta^(p^2) is theta")
    # 1/f'(sigma(theta)) mod p is sigma(adj) / det, where f'(theta) * adj = det
    adj, det = _adjugate((f[1], 2 * f[2], 3), f)
    bad = residues(det, p) == 0
    if bad.any():
        raise ArithmeticError(f"f'(theta) is not invertible mod {p[bad][0]}")
    dinv = inverse(det, p)
    sigma_adj = rp.apply(tuple(residues(c, p) for c in adj), images)
    step = rp.mul(tuple(c // p * dinv % p for c in ft), sigma_adj)
    s1 = tuple((c - p * s) % m for c, s in zip(xp, step))
    t = rm.frobenius_quotient(p, rm.pow(unit, p), inv, (s1, rm.square(s1)))
    return rp.apply(rp.apply(t, images), images)


def _cubic_chunk(args: tuple[CubicFieldRecord, str], primes: np.ndarray) -> Block:
    """classify_cubic_prime for every prime of the int64 array, args = (rec, mode)."""
    rec, mode = args
    f = rec.spec.reduction
    code = np.full(len(primes), CLEAR_CODE, dtype=np.int8)  # clear marks the lanes still live

    def exclude(lanes, reason):
        code[lanes[code[lanes] == CLEAR_CODE]] = CODES.index(reason)

    every = np.arange(len(primes))
    chi = legendre(rec.delta, primes)  # 0 at the ramified p > 3, -1 where Frobenius has order 2
    exclude(every[(primes == 2) | (primes == 3)], "hyp1_divides_6")
    exclude(every[chi == 0], "hyp2_ramified")
    if rec.class_number_e is not None:
        exclude(every[residues(rec.class_number_e, primes) == 0], "hyp3_class_number")
    exclude(every[np.isin(primes, sorted(h5_set(rec.ramified)))], "hyp5_in_H5")
    if mode == MODE_ORDINARY:
        exclude(every[primes % 3 == 2], "p_2_mod_3")
    exclude(every[chi != 1], "frob_order_not_3")
    live = np.flatnonzero(code == CLEAR_CODE)
    p = primes[live]
    xp = Lanes(p, f).pow((0, 1, 0), p)
    split = _equals(xp, (0, 1, 0))
    exclude(live[split], "frob_order_not_3")
    live, p, xp = live[~split], p[~split], tuple(c[~split] for c in xp)
    z = _z_lanes(rec.unit, rec.unit_inverse, f, p, xp)
    zero = _equals(z, (0, 0, 0))
    if mode == MODE_ORDINARY:
        exclude(live[zero], "z_zero")
        lanes = Lanes(p, f)
        cube = lanes.mul(lanes.square(z), z)
        hit = ~zero & (cube[1] == 0) & (cube[2] == 0)
    else:
        hit = zero
    code[live[hit]] = HIT_CODE
    # N(eps) = +-1 puts z in the trace-zero plane of O/p, where z = 0 has probability 1/p^2
    # and z^3 in F_p* (z on the lines of gamma, gamma^2; gamma^3 a non-cube) 2/(p+1)
    denominators = primes * primes if mode == MODE_H2 else (primes + 1) >> 1
    aux = tuple(zip(*(c[hit].tolist() for c in z)))
    return Block.of(primes, code, aux, denominators=denominators)


def scan_cubic(
    rec: CubicFieldRecord,
    rng: PrimeRange,
    mode: str = MODE_ORDINARY,
    full_verdicts: bool = False,
    workers: int = 1,
) -> ScanReport:
    """Ascending hits over the range.

    Ordinary mode lists primes where the ordinarity congruence holds (a
    nonzero ordinary piece); h2 mode lists primes with z = 0 (an
    obstruction), expected empty.  Non-qualifying primes are skipped
    silently unless full verdicts are requested.
    """
    if mode not in (MODE_H2, MODE_ORDINARY):
        raise ValueError(f"unknown mode {mode!r}")
    warnings = []
    if rec.class_number_e is None:
        warnings.append(
            f"h_E unknown for delta={rec.delta}: the class-number exclusion was not applied"
        )
    t0 = time.perf_counter()
    verdicts = run_chunked(_cubic_chunk, (rec, mode), rng.lo, rng.hi, workers)
    return assemble_report(
        field_id=f"cubic(delta={rec.delta})",
        mode=mode,
        lo=rng.lo,
        hi=rng.hi,
        verdicts=verdicts,
        full_verdicts=full_verdicts,
        warnings=warnings,
        wall_time=time.perf_counter() - t0,
        workers=workers,
    )
