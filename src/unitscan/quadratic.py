"""Real-quadratic scanner: fundamental units and the mod-p^2 congruence test.

For squarefree D >= 2 the maximal order of Q(sqrt(D)) is Z[omega] with
omega = sqrt(D) for D = 2, 3 mod 4 and omega = (1+sqrt(D))/2 for D = 1 mod 4.
The fundamental unit eps is found from the periodic continued fraction of
omega; a prime p is a hit when eps^(p^2-1) = 1 in Z[omega]/p^2, which is the
unit-theoretic criterion for the relevant degree-two cohomology not to vanish.

The code decides it by the Frobenius quotient eps^p * sigma(eps)^-1 = 1 + p*t
mod p^2 (order_arith), one power by p: sigma fixes sqrt(D) when (D/p) = 1 and
negates it when (D/p) = -1.  With eps = w(1 + p*y), w the Teichmueller lift,
eps^(p^2-1) = 1 - p*y and t = -sigma(y) mod p, so p is a hit exactly when t = 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from ._data import DataFileError, data_path, read_table_rows
from ._parallel import run_chunked
# pow2 is poly_pow, called through this module global: the benchmark traces that name
from .order_arith import Lanes, OrderSpec, frobenius_quotient, legendre, poly_pow as pow2, residues
from .primes import PrimeRange, prime_divisors, primes_in, require_prime  # the benchmark traces primes_in
from .report import (CLEAR, CLEAR_CODE, CODES, EXCLUDED, HIT, HIT_CODE, Block, ScanReport,
                     Verdict, assemble_report)

__all__ = [
    "MIN_SCAN_PRIME",
    "QuadUnit",
    "QuadFieldRecord",
    "is_squarefree",
    "order_spec_for",
    "unit_norm",
    "fundamental_unit_quadratic",
    "load_quad_fields",
    "quad_unit_test",
    "classify_quad_prime",
    "scan_quadratic",
]

# p = 2 is outside the scan policy; ramified p and p | h are reported as
# excluded, never as clear.
MIN_SCAN_PRIME = 3

MODE_QUAD = "quad"


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(n % (q * q) for q in prime_divisors(n))


def order_spec_for(d: int) -> OrderSpec:
    """Defining polynomial of Z[omega]: x^2-D, or x^2-x-(D-1)/4 in the half case."""
    return OrderSpec((-(d - 1) // 4, -1, 1) if d % 4 == 1 else (-d, 0, 1))


def unit_norm(d: int, a: int, b: int) -> int:
    if d % 4 == 1:
        return a * a + a * b - b * b * ((d - 1) // 4)
    return a * a - d * b * b


@dataclass(frozen=True)
class QuadUnit:
    """eps = a + b*omega; the field record checks that its norm is +1 or -1."""

    a: int
    b: int


@dataclass(frozen=True)
class QuadFieldRecord:
    """Q(sqrt(D)) with its class number and fundamental unit (by default the
    one the continued fraction of omega gives)."""

    d: int
    class_number: int
    unit: QuadUnit | None = None
    field_disc: int = field(init=False, repr=False, compare=False)
    reduction: tuple[int, int] = field(init=False, repr=False, compare=False)
    unit_inverse: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_squarefree(self.d) or self.d < 2:
            raise ValueError(f"D={self.d} must be squarefree and >= 2")
        if self.class_number < 1:
            raise ValueError("class number must be positive")
        if self.unit is None:
            object.__setattr__(self, "unit", fundamental_unit_quadratic(self.d))
        u = self.unit
        if (u.a, u.b) in ((1, 0), (-1, 0)):
            raise ValueError("unit must not be +-1")
        n = unit_norm(self.d, u.a, u.b)
        if n not in (1, -1):
            raise ValueError("unit norm is not +-1")
        spec = order_spec_for(self.d)  # Z[omega] is the maximal order: its disc is the field's
        object.__setattr__(self, "field_disc", spec.discriminant)
        object.__setattr__(self, "reduction", spec.reduction)
        f1 = self.reduction[1]  # eps^-1 = N(eps) conj(eps), conj(omega) = -f1 - omega
        object.__setattr__(self, "unit_inverse", (n * (u.a - u.b * f1), -n * u.b))


def fundamental_unit_quadratic(d: int) -> QuadUnit:
    """Fundamental unit of Z[omega] via the continued fraction of omega.

    Runs the quadratic-irrational (P, Q) recurrence from omega itself.  At
    the first index k >= 1 with Q_k = Q_0 the convergent p_{k-1}/q_{k-1}
    yields the unit eps = p_{k-1} - q_{k-1} * conj(omega) of norm (-1)^k,
    and this first return is the fundamental one.
    """
    if d < 2:
        raise ValueError("D must be at least 2")
    if not is_squarefree(d):
        raise ValueError(f"D={d} is not squarefree")
    s = isqrt(d)
    if d % 4 == 1:
        pP, q0, tr = 1, 2, 1
    else:
        pP, q0, tr = 0, 1, 0
    qQ = q0
    a = (pP + s) // qQ
    p_cur, p_prev = a, 1
    q_cur, q_prev = 1, 0
    k = 0
    while True:
        k += 1
        pP = a * qQ - pP
        qn, rem = divmod(d - pP * pP, qQ)
        if rem or qn <= 0:
            raise ArithmeticError(f"continued fraction state corrupt for D={d}")
        qQ = qn
        if qQ == q0:
            aa, bb = p_cur - tr * q_cur, q_cur
            sign = -1 if k % 2 else 1
            if unit_norm(d, aa, bb) != sign:
                raise ArithmeticError(f"norm check failed for D={d}")
            return QuadUnit(aa, bb)
        a = (pP + s) // qQ
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur


def load_quad_fields(data_dir=None) -> dict[int, QuadFieldRecord]:
    """Field data file: one row per D with its class number and an optional
    explicit unit override (a b)."""
    records = {}
    for row in read_table_rows(data_path("quad_fields.txt", data_dir)):
        try:
            d, h = int(row[0]), int(row[1])
            unit = None
            if len(row) == 4:
                unit = QuadUnit(int(row[2]), int(row[3]))
            elif len(row) != 2:
                raise ValueError("expected 'D h [a b]'")
            if d in records:
                raise ValueError(f"duplicate D={d}")
            records[d] = QuadFieldRecord(d, h, unit)
        except (ValueError, IndexError) as exc:
            raise DataFileError(f"bad quadratic field row {row}: {exc}") from exc
    if not records:
        raise DataFileError("no quadratic field records found")
    return records


_EXCLUSION_MESSAGES = {
    "below_min_p": "p={p} below the minimum scan prime {min_p}",
    "ramified": "p={p} ramifies in Q(sqrt({d}))",
    "divides_class_number": "p={p} divides the class number",
}


def quad_unit_test(rec: QuadFieldRecord, p: int) -> bool:
    """True exactly when eps^(p^2-1) = 1 mod p^2 Z[omega], decided by the
    equivalent eps^p = sigma(eps) mod p^2 (see the module docstring).

    Valid for odd unramified primes p coprime to the class number; anything
    else is rejected so the scan can report it as excluded rather than silently skip.
    """
    require_prime(p)
    v = classify_quad_prime(rec, p)
    if v.status == EXCLUDED:
        raise ValueError(_EXCLUSION_MESSAGES[v.reason].format(p=p, d=rec.d, min_p=MIN_SCAN_PRIME))
    return v.status == HIT


def classify_quad_prime(rec: QuadFieldRecord, p: int) -> Verdict:
    """Per-prime verdict, the scalar reference of the lane kernel and the path of
    quad_unit_test; p must be prime and is not checked (it runs over sieve output)."""
    if p < MIN_SCAN_PRIME:
        return Verdict(p, EXCLUDED, reason="below_min_p")
    if rec.field_disc % p == 0:
        return Verdict(p, EXCLUDED, reason="ramified")
    if rec.class_number % p == 0:
        return Verdict(p, EXCLUDED, reason="divides_class_number")
    f, m = rec.reduction, p * p
    # sigma(omega): omega at a split prime, its conjugate -f1 - omega at an inert one
    image = (-f[1] % m, m - 1) if pow(rec.d, (p - 1) // 2, p) != 1 else (0, 1)
    up = pow2((rec.unit.a, rec.unit.b), p, f, m)
    t = frobenius_quotient(up, rec.unit_inverse, (image,), f, p)
    return Verdict(p, HIT if t == (0, 0) else CLEAR)


def _quad_chunk(rec: QuadFieldRecord, primes: np.ndarray) -> Block:
    """classify_quad_prime for every prime of the int64 array."""
    u = rec.unit
    code = np.full(len(primes), CLEAR_CODE, dtype=np.int8)  # clear marks the lanes still live
    chi = legendre(rec.d, primes)  # (D/p), 0 exactly at the odd p dividing 4D: the ramified ones
    # the exclusions in the order classify_quad_prime applies them
    excluded = {"below_min_p": primes < MIN_SCAN_PRIME, "ramified": chi == 0,
                "divides_class_number": residues(rec.class_number, primes) == 0}
    for reason, mask in excluded.items():
        code[(code == CLEAR_CODE) & mask] = CODES.index(reason)
    live = np.flatnonzero(code == CLEAR_CODE)
    p = primes[live]
    m = p * p
    ring = Lanes(m, rec.reduction)
    inert = chi[live] != 1
    image = (np.where(inert, -rec.reduction[1] % m, 0), np.where(inert, m - 1, 1))
    t = ring.frobenius_quotient(p, ring.pow((u.a, u.b), p), rec.unit_inverse, (image,))
    code[live[(t[0] == 0) & (t[1] == 0)]] = HIT_CODE
    return Block.of(primes, code)


def scan_quadratic(
    rec: QuadFieldRecord,
    rng: PrimeRange,
    full_verdicts: bool = False,
    workers: int = 1,
) -> ScanReport:
    """Ascending verdicts over the range; hit iff the unit congruence holds."""
    t0 = time.perf_counter()
    verdicts = run_chunked(_quad_chunk, rec, rng.lo, rng.hi, workers)
    return assemble_report(
        field_id=f"quad(D={rec.d})",
        mode=MODE_QUAD,
        lo=rng.lo,
        hi=rng.hi,
        verdicts=verdicts,
        full_verdicts=full_verdicts,
        wall_time=time.perf_counter() - t0,
        workers=workers,
    )
