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
from dataclasses import dataclass
from functools import lru_cache
from math import log

from ._data import DataFileError, data_path, read_table_rows
from ._parallel import run_chunked
from .order_arith import OrderSpec, frobenius_order, mul3, pow3
from .primes import PrimeRange, primes_in
from .report import CLEAR, EXCLUDED, HIT, ScanReport, Verdict, assemble_report

__all__ = [
    "MODE_H2",
    "MODE_ORDINARY",
    "CubicFieldRecord",
    "ZValue",
    "prime_divisors",
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


def prime_divisors(n: int) -> frozenset[int]:
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


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

def _mulz3(a, b, f):
    """Product of two triples in Z[x]/(f), exact integers (no modulus)."""
    f0, f1, f2 = f
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * b0
    c2 = a0 * b2 + a1 * b1 + a2 * b0
    c3 = a1 * b2 + a2 * b1
    c4 = a2 * b2
    return (
        c0 - c3 * f0 + c4 * f2 * f0,
        c1 - c3 * f1 + c4 * (f2 * f1 - f0),
        c2 - c3 * f2 + c4 * (f2 * f2 - f1),
    )


def _adjugate(g, f):
    """First column of the adjugate of g's multiplication matrix, and its
    determinant (the norm of g), exact: g * (c0 + c1 x + c2 x^2) = det."""
    cols = (g, _mulz3(g, (0, 1, 0), f), _mulz3(g, (0, 0, 1), f))
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = cols
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
    """The unique real root of f (disc < 0), by bisection."""
    f0, f1, f2 = spec.reduction

    def g(x):
        return ((x + f2) * x + f1) * x + f0

    bound = 1.0 + max(abs(f0), abs(f1), abs(f2))
    lo, hi = -bound, bound
    for _ in range(200):
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


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
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if b == 0 and c == 0:
                    continue  # rational integers: only the torsion +-1
                if element_norm(spec, (a, b, c)) in (1, -1):
                    lg = abs(log(abs(_embed((a, b, c), root))))
                    if lg > 1e-12 and (best is None or lg < best[0] - 1e-12):
                        best = (lg, (a, b, c))
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
    best = _unit_candidates(spec, coeff_bound, root)
    if best is None:
        raise ValueError(
            f"no unit with coefficients up to {coeff_bound}; retry with a larger bound"
        )
    triple, val = _normalize_unit(spec, best[1], root)
    if absd > 28 and 4 * val**1.5 + 24 <= absd - _ARTIN_SLACK:
        return triple, "artin"
    enlarged = max(coeff_bound + 5, (3 * coeff_bound) // 2)
    best2 = _unit_candidates(spec, enlarged, root)
    triple2, val2 = _normalize_unit(spec, best2[1], root)
    if absd > 28 and 4 * val2**1.5 + 24 <= absd - _ARTIN_SLACK:
        return triple2, "artin"
    return triple2, "exhaustive"


# -- field records --------------------------------------------------------------

@dataclass(frozen=True)
class CubicFieldRecord:
    delta: int
    spec: OrderSpec
    ramified: frozenset[int]
    class_number_e: int | None
    unit: tuple[int, int, int]
    unit_certificate: str = "shipped"

    def __post_init__(self):
        if self.delta >= 0:
            raise ValueError("field discriminant must be negative")
        if self.spec.discriminant != self.delta:
            raise ValueError("disc(f) must equal the field discriminant")
        if self.ramified != prime_divisors(self.delta):
            raise ValueError("ramified set must be the prime divisors of the discriminant")
        if self.class_number_e is not None and self.class_number_e < 1:
            raise ValueError("class number must be positive")
        a, b, c = self.unit
        if b == 0 and c == 0:
            raise ValueError("unit must not be rational (+-1)")
        if element_norm(self.spec, self.unit) not in (1, -1):
            raise ValueError("unit norm is not +-1")


def cubic_field_record(
    delta: int,
    poly,
    class_number_e: int | None = None,
    unit: tuple[int, int, int] | None = None,
    certificate: str = "shipped",
) -> CubicFieldRecord:
    spec = OrderSpec.from_poly(poly)
    if unit is None:
        unit, certificate = find_fundamental_unit(spec)
    return CubicFieldRecord(delta, spec, prime_divisors(delta), class_number_e, unit, certificate)


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
            poly = (int(row[3]), int(row[2]), int(row[1]), 1)
            ramified = frozenset(int(l) for l in row[4].split(","))
            if ramified != prime_divisors(delta):
                raise ValueError("S does not equal the prime divisors of delta")
            h_e = None if row[5] == "?" else int(row[5])
            unit = (int(row[6]), int(row[7]), int(row[8]))
            records[delta] = cubic_field_record(delta, poly, h_e, unit, row[9])
        except (ValueError, IndexError) as exc:
            raise DataFileError(f"bad cubic field row {row}: {exc}") from exc
    if not records:
        raise DataFileError("no cubic field records found")
    return records


# -- hypotheses and the z-invariant ---------------------------------------------

def hyp_filter(rec: CubicFieldRecord, p: int) -> str | None:
    """None when p passes all five hypotheses, else the first failure in
    their listed order (p coprime to 6, unramified, coprime to the closure
    class number, odd, outside the small exclusion set)."""
    if p in (2, 3):
        return "hyp1_divides_6"
    if rec.delta % p == 0:
        return "hyp2_ramified"
    if rec.class_number_e is not None and rec.class_number_e % p == 0:
        return "hyp3_class_number"
    if p % 2 == 0:
        return "hyp4_even"
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


def _frobenius(a, s1, s2, m: int) -> tuple[int, int, int]:
    """a0 + a1*theta + a2*theta^2 -> a0 + a1*s1 + a2*s2 mod m, where s1 and s2
    are the images of theta and theta^2."""
    a0, a1, a2 = a
    return (
        (a0 + a1 * s1[0] + a2 * s2[0]) % m,
        (a1 * s1[1] + a2 * s2[1]) % m,
        (a1 * s1[2] + a2 * s2[2]) % m,
    )


def _z_coeffs(unit, f, p: int, xp=None) -> tuple[int, int, int]:
    """z with eps^(p^3-1) = 1 + z*p mod p^2, at an inert prime p, for any
    representative of eps mod p^2; xp is theta^p mod (f, p) when known.
    ArithmeticError when p is not inert or the inputs are inconsistent.

    O/p^2 is the Galois ring GR(p^2, 3), with Frobenius sigma.  Writing
    eps = omega*(1 + p*y) with omega the Teichmueller lift gives z = -y and
    eps^p * sigma(eps^-1) = 1 - p*sigma(y) mod p^2, so one power by p yields
    sigma(z), and z = sigma^2(sigma(z)) because sigma^3 = 1 on O/p.
    """
    m = p * p
    f0, f1, f2 = f
    fm = (f0 % m, f1 % m, f2 % m)
    fp = (f0 % p, f1 % p, f2 % p)
    if xp is None:
        xp = pow3((0, 1, 0), p, fp, p)
    # sigma(theta) mod p^2: one Newton step t - f(t)/f'(t) from t = theta^p.
    t2 = mul3(xp, xp, fm, m)
    t3 = mul3(t2, xp, fm, m)
    ft = [t3[i] + f2 * t2[i] + f1 * xp[i] for i in range(3)]
    dt = [3 * t2[i] + 2 * f2 * xp[i] for i in range(3)]
    ft[0] += f0
    dt[0] += f1
    if ft[0] % p or ft[1] % p or ft[2] % p:
        raise ArithmeticError(f"theta^p is not a root of f mod {p}: corrupt inputs")
    xp2 = (t2[0] % p, t2[1] % p, t2[2] % p)
    if xp == (0, 1, 0) or _frobenius(xp, xp, xp2, p) == (0, 1, 0):
        raise ArithmeticError(f"p={p} is not inert: theta^p or theta^(p^2) is theta")
    step = mul3([c // p for c in ft], _inverse_mod(dt, fp, p), fp, p)
    s1 = ((xp[0] - p * step[0]) % m, (xp[1] - p * step[1]) % m, (xp[2] - p * step[2]) % m)
    s2 = mul3(s1, s1, fm, m)
    u = (unit[0] % m, unit[1] % m, unit[2] % m)
    w = mul3(pow3(u, p, fm, m), _frobenius(_inverse_mod(u, fm, m), s1, s2, m), fm, m)
    d0 = w[0] - 1
    if d0 % p or w[1] % p or w[2] % p:
        raise ArithmeticError(
            f"eps^p * sigma(eps^-1) is not 1 mod {p}: impossible for an inert prime, "
            "this indicates corrupt inputs"
        )
    sz = (d0 // p, w[1] // p, w[2] // p)
    return _frobenius(_frobenius(sz, xp, xp2, p), xp, xp2, p)


def _z_cubed_in_fp(z, fp, p: int) -> bool:
    """z^(3(p-1)) = 1 in F_(p^3) for nonzero z: x^(p-1) = 1 exactly when x
    lies in F_p*, so the test is that z^3 has no theta or theta^2 part."""
    c = mul3(mul3(z, z, fp, p), z, fp, p)
    return c[1] == 0 and c[2] == 0


def z_value(rec: CubicFieldRecord, p: int) -> ZValue:
    """The invariant z at an inert prime passing the hypothesis filter."""
    reason = hyp_filter(rec, p)
    if reason is not None:
        raise ValueError(f"p={p} rejected by the hypothesis filter ({reason})")
    if frobenius_order(rec.spec, p) != 3:
        raise ValueError(f"p={p} is not inert (Frobenius order is not 3)")
    return ZValue(p, _z_coeffs(rec.unit, rec.spec.reduction, p))


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
    """Per-prime verdict used by the scans (readable reference path)."""
    reason = hyp_filter(rec, p)
    if reason is not None:
        return Verdict(p, EXCLUDED, reason=reason)
    if mode == MODE_ORDINARY and p % 3 == 2:
        return Verdict(p, EXCLUDED, reason="p_2_mod_3")
    if frobenius_order(rec.spec, p) != 3:
        return Verdict(p, EXCLUDED, reason="frob_order_not_3")
    z = z_value(rec, p)
    if mode == MODE_H2:
        if z.is_zero:
            return Verdict(p, HIT, aux=z.coeffs)
        return Verdict(p, CLEAR)
    if mode == MODE_ORDINARY:
        if z.is_zero:
            return Verdict(p, EXCLUDED, reason="z_zero")
        if ordinary_test(rec, p):
            return Verdict(p, HIT, aux=z.coeffs)
        return Verdict(p, CLEAR)
    raise ValueError(f"unknown mode {mode!r}")


def _cubic_chunk(args, lo: int, hi: int) -> list[Verdict]:
    rec, mode = args
    f = rec.spec.reduction
    f0, f1, f2 = f
    delta = rec.delta
    h5 = h5_set(rec.ramified)
    h_e = rec.class_number_e
    unit = rec.unit
    ordinary = mode == MODE_ORDINARY
    out = []
    x = (0, 1, 0)
    for p in primes_in(PrimeRange(lo, hi)):
        if p == 2 or p == 3:
            out.append(Verdict(p, EXCLUDED, reason="hyp1_divides_6"))
            continue
        if delta % p == 0:
            out.append(Verdict(p, EXCLUDED, reason="hyp2_ramified"))
            continue
        if h_e is not None and h_e % p == 0:
            out.append(Verdict(p, EXCLUDED, reason="hyp3_class_number"))
            continue
        if p in h5:
            out.append(Verdict(p, EXCLUDED, reason="hyp5_in_H5"))
            continue
        if ordinary and p % 3 == 2:
            out.append(Verdict(p, EXCLUDED, reason="p_2_mod_3"))
            continue
        # Frobenius order 3 means p inert: quadratic residue discriminant
        # (rules out order 2), then x^p != x mod f (rules out order 1).
        if pow(delta % p, (p - 1) >> 1, p) != 1:
            out.append(Verdict(p, EXCLUDED, reason="frob_order_not_3"))
            continue
        fp = (f0 % p, f1 % p, f2 % p)
        xp = pow3(x, p, fp, p)
        if xp == x:
            out.append(Verdict(p, EXCLUDED, reason="frob_order_not_3"))
            continue
        z = _z_coeffs(unit, f, p, xp)
        if ordinary:
            if z == (0, 0, 0):
                out.append(Verdict(p, EXCLUDED, reason="z_zero"))
            elif _z_cubed_in_fp(z, fp, p):
                out.append(Verdict(p, HIT, aux=z))
            else:
                out.append(Verdict(p, CLEAR))
        else:
            if z == (0, 0, 0):
                out.append(Verdict(p, HIT, aux=z))
            else:
                out.append(Verdict(p, CLEAR))
    return out


def scan_cubic(
    rec: CubicFieldRecord,
    rng: PrimeRange,
    mode: str = MODE_ORDINARY,
    full_verdicts: bool = False,
    workers: int = 1,
    chunk_span: int = 1 << 14,
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
    verdicts = run_chunked(_cubic_chunk, (rec, mode), rng.lo, rng.hi, workers, chunk_span)
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
